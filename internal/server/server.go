package server

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/core"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/telemetry"
)

// OpKind is a request's operation type.
type OpKind int

const (
	OpGet OpKind = iota
	OpPut
	OpDelete
)

// Request is one simulated-RPC request. Create with NewRequest; the
// buffers (Key, Val, Dst) belong to the caller and must stay untouched
// until the response arrives. A request is stamped at admission with
// arrival timestamps on both the pod logical clock and the wall clock,
// and carries one absolute deadline for its whole lifetime — retries
// re-enter admission with fresh arrival stamps but the original
// deadline (deadline propagation: a request never outlives its budget
// by being resubmitted).
type Request struct {
	Op    OpKind
	Key   []byte
	Val   []byte // put payload
	Dst   []byte // get destination buffer (grown as needed, reused)
	KeyID int    // caller's key tag, for the DecodeVer hook

	// Deadline is the relative budget; the absolute deadline is stamped
	// from it on the first Submit. Zero means effectively unbounded.
	Deadline time.Duration
	// PrevVer is, for deletes issued by a versioned client, the value
	// version being displaced — ground truth for crash resolution.
	PrevVer uint64

	// Shard and ShardEpoch are stamped by a fabric router at routing
	// time; the execution-time Gate re-validates them so an op admitted
	// before a shard moved cannot execute against the old owner.
	Shard      int
	ShardEpoch uint64

	arriveWall   time.Time
	arriveTick   uint64
	deadlineWall time.Time
	deadlineTick uint64 // 0: wall-clock deadline only

	resp Response
	done chan *Request
}

// NewRequest allocates a request with its completion channel.
func NewRequest() *Request { return &Request{done: make(chan *Request, 1)} }

// Wait blocks until the server responds and returns the response.
func (r *Request) Wait() *Response {
	<-r.done
	return &r.resp
}

// Reset prepares the request for a fresh operation (pooled reuse),
// keeping its buffers.
func (r *Request) Reset() {
	r.resp = Response{}
	r.arriveWall, r.deadlineWall = time.Time{}, time.Time{}
	r.arriveTick, r.deadlineTick = 0, 0
	r.PrevVer = 0
	r.Shard, r.ShardEpoch = 0, 0
}

// ArriveTick returns the pod-logical-clock arrival stamp of the most
// recent admission.
func (r *Request) ArriveTick() uint64 { return r.arriveTick }

// expired reports whether either deadline stamp has passed.
func (r *Request) expired(now time.Time, tick uint64) bool {
	if now.After(r.deadlineWall) {
		return true
	}
	return r.deadlineTick != 0 && tick > r.deadlineTick
}

// Response is the server's answer. Err == nil means the op executed
// and its effect is durable store state (an acknowledgement). A typed
// shed error means the op never executed. ErrCrashed means the op died
// mid-execution and Applied is its resolved fate.
type Response struct {
	Err      error
	Found    bool   // get/delete: key presence
	Value    []byte // get: result bytes (aliases Request.Dst)
	Applied  bool   // with ErrCrashed: whether the op's effect survived
	DoneWall time.Time
}

// Config parameterizes a Server. Pod, Store, and Groups are required;
// zero values elsewhere take the documented defaults.
type Config struct {
	Pod   *cxlalloc.Pod
	Store *kvstore.Store
	// Groups lists each process group's thread slots: one admission
	// queue, one circuit breaker, and one worker goroutine per tid.
	Groups [][]int

	QueueCap      int           // per-group admission queue bound (default 512)
	LIFOThreshold int           // depth at which pop turns newest-first (default QueueCap/2)
	CoDelTarget   time.Duration // sojourn target (default 5ms)
	CoDelInterval time.Duration // above-target grace interval (default 100ms)

	SoftWatermark float64       // shed writes at this mapped-slab fraction (default 0.90)
	HardWatermark float64       // ErrPodFull at this fraction (default 0.98)
	RetryAfter    time.Duration // ErrPodFull hint (default 5ms)
	// PressureFn overrides the memory-pressure source (tests). Default:
	// the heap's MemPressure sampled every PressureEvery.
	PressureFn    func() float64
	PressureEvery time.Duration // sampler period (default 1ms)

	// TickRate, when nonzero, is the calibrated pod-clock rate in
	// ticks/second; deadlines are then stamped on the pod logical clock
	// too and enforced against whichever clock expires first. Harnesses
	// that calibrate mid-run use SetTickRate instead.
	TickRate float64

	// DecodeVer extracts the version from a value's bytes (the
	// versioned client's codec); used to resolve a crashed delete's
	// fate exactly. Nil falls back to "value present ⇒ not applied".
	DecodeVer func(keyID int, val []byte) (uint64, error)

	// Gate, when set, runs immediately before each op executes (fabric
	// shard-ownership check): it re-validates the request's routing
	// stamps against current ownership. A non-nil error rejects the op
	// unexecuted (counted as ShedShard); a non-nil release pins the
	// shard for the op's duration and is invoked once the op's fate is
	// settled — including a crashed write's post-repair resolution — so
	// "pins drained" implies no in-flight effect can still land.
	Gate func(r *Request) (release func(), err error)
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 512
	}
	if c.LIFOThreshold == 0 {
		c.LIFOThreshold = c.QueueCap / 2
	}
	if c.CoDelTarget == 0 {
		c.CoDelTarget = 5 * time.Millisecond
	}
	if c.CoDelInterval == 0 {
		c.CoDelInterval = 100 * time.Millisecond
	}
	if c.SoftWatermark == 0 {
		c.SoftWatermark = 0.90
	}
	if c.HardWatermark == 0 {
		c.HardWatermark = 0.98
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 5 * time.Millisecond
	}
	if c.PressureEvery == 0 {
		c.PressureEvery = time.Millisecond
	}
	return c
}

// group is one process group's service state.
type group struct {
	id   int
	tids []int
	q    *queue
	brk  breaker
	wake chan struct{} // idle workers' wake tokens, one slot per worker

	idleTicks atomic.Uint64 // benign fallback ticks run by g's workers
}

// Server is the KV service front end. One worker goroutine serves per
// thread slot; requests enter through Submit and complete through
// their channel.
type Server struct {
	cfg    Config
	heap   *core.Heap
	groups []*group

	rr       atomic.Uint64 // read router cursor
	pressure atomic.Uint64 // float64 bits of the latest sample
	tickRate atomic.Uint64 // float64 bits; 0 = wall-clock deadlines only
	idleTick time.Duration // idle workers' fallback tick (idleSleep)
	stopped  atomic.Bool
	wg       sync.WaitGroup

	submitted, admitted, executed          atomic.Uint64
	shedQueueFull, shedCoDel, shedDeadline atomic.Uint64
	shedWrite, shedPodFull, shedBreaker    atomic.Uint64
	shedShard                              atomic.Uint64
	breakerReroutes                        atomic.Uint64
	workerCrashes, crashResolves           atomic.Uint64
	pendingCrashed                         atomic.Int64
}

const (
	idleSleep  = 100 * time.Microsecond
	repairPoll = 200 * time.Microsecond
)

// New builds the server and starts its workers and pressure sampler.
func New(cfg Config) *Server { return newServer(cfg, idleSleep) }

// newServer is New with the idle workers' fallback tick as a parameter,
// so tests can take the timer out of the wake protocol.
func newServer(cfg Config, idleTick time.Duration) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, heap: cfg.Pod.Heap(), idleTick: idleTick}
	if cfg.PressureFn == nil {
		heap := s.heap
		cfg.PressureFn = func() float64 { return heap.MemPressure(0) }
		s.cfg.PressureFn = cfg.PressureFn
	}
	s.pressure.Store(math.Float64bits(cfg.PressureFn()))
	s.tickRate.Store(math.Float64bits(cfg.TickRate))
	for gi, tids := range cfg.Groups {
		g := &group{
			id:   gi,
			tids: append([]int(nil), tids...),
			q:    newQueue(cfg.QueueCap, cfg.LIFOThreshold, cfg.CoDelTarget, cfg.CoDelInterval),
			wake: make(chan struct{}, len(tids)),
		}
		s.groups = append(s.groups, g)
	}
	s.wg.Add(1)
	go s.sampler()
	for _, g := range s.groups {
		for _, tid := range g.tids {
			// Register serving before the goroutine is scheduled: a fresh
			// server must not shed ErrBreakerOpen in the instants before
			// its workers first run.
			g.brk.workerUp()
			s.wg.Add(1)
			go s.worker(g, tid)
		}
	}
	return s
}

// Stop shuts the server down: workers exit, then every still-queued
// request is answered ErrStopped. Callers that need every in-flight
// op's true fate (the oracle harnesses) must wait for all outstanding
// responses before stopping.
func (s *Server) Stop() {
	s.stopped.Store(true)
	for _, g := range s.groups {
		for range g.tids {
			wake(g)
		}
	}
	s.wg.Wait()
	for _, g := range s.groups {
		for _, r := range g.q.drain() {
			s.respond(r, ErrStopped)
		}
	}
}

// Pressure returns the latest memory-pressure sample.
func (s *Server) Pressure() float64 {
	return math.Float64frombits(s.pressure.Load())
}

// SetTickRate installs a calibrated pod-clock rate (ticks/second);
// subsequent admissions stamp tick deadlines from it.
func (s *Server) SetTickRate(r float64) {
	s.tickRate.Store(math.Float64bits(r))
}

// Stats assembles the service-plane resilience counters.
func (s *Server) Stats() telemetry.ServerStats {
	st := telemetry.ServerStats{
		Submitted:       s.submitted.Load(),
		Admitted:        s.admitted.Load(),
		Executed:        s.executed.Load(),
		ShedQueueFull:   s.shedQueueFull.Load(),
		ShedCoDel:       s.shedCoDel.Load(),
		ShedDeadline:    s.shedDeadline.Load(),
		ShedWrite:       s.shedWrite.Load(),
		ShedPodFull:     s.shedPodFull.Load(),
		ShedBreaker:     s.shedBreaker.Load(),
		ShedShard:       s.shedShard.Load(),
		BreakerReroutes: s.breakerReroutes.Load(),
		WorkerCrashes:   s.workerCrashes.Load(),
		CrashResolves:   s.crashResolves.Load(),
	}
	for _, g := range s.groups {
		st.BreakerOpens += g.brk.opens.Load()
	}
	return st
}

// PendingCrashed returns how many crashed writes are still awaiting
// post-repair resolution. A fabric failover must drive this to zero —
// by rescuing the pod's dead slots so workers can resolve — before
// stopping the server: answering a maybe-applied write ErrStopped
// would hide its true fate from the acked-write oracle.
func (s *Server) PendingCrashed() int64 { return s.pendingCrashed.Load() }

func (s *Server) clockNow() uint64 { return s.heap.ClockNow(0) }

func (s *Server) respond(r *Request, err error) {
	r.resp.Err = err
	r.resp.DoneWall = time.Now()
	r.done <- r
}

// Reject answers r with err without admitting it to any server — the
// router-level rejection path (fabric: dark pod, frozen shard, no
// owner). It stamps arrival and the absolute deadline exactly like
// Submit, so client backoff and deadline propagation see a normally
// stamped request.
func Reject(r *Request, err error) {
	now := time.Now()
	r.arriveWall = now
	if r.deadlineWall.IsZero() {
		d := r.Deadline
		if d <= 0 {
			d = 24 * time.Hour
		}
		r.deadlineWall = now.Add(d)
	}
	r.resp.Err = err
	r.resp.DoneWall = now
	r.done <- r
}

// Submit admits r (asynchronously; the response arrives on r's
// channel): watermark checks, breaker-aware routing, then the chosen
// group's bounded queue.
func (s *Server) Submit(r *Request) {
	s.submitted.Add(1)
	now := time.Now()
	r.arriveWall = now
	r.arriveTick = s.clockNow()
	if r.deadlineWall.IsZero() {
		d := r.Deadline
		if d <= 0 {
			d = 24 * time.Hour
		}
		r.deadlineWall = now.Add(d)
		if tr := math.Float64frombits(s.tickRate.Load()); tr > 0 {
			r.deadlineTick = r.arriveTick + uint64(tr*d.Seconds())
		}
	}
	if s.stopped.Load() {
		s.respond(r, ErrStopped)
		return
	}
	if r.Op != OpGet {
		p := s.Pressure()
		if p >= s.cfg.HardWatermark {
			s.shedPodFull.Add(1)
			s.respond(r, &ErrPodFull{Pressure: p, RetryAfter: s.cfg.RetryAfter})
			return
		}
		if p >= s.cfg.SoftWatermark {
			s.shedWrite.Add(1)
			s.respond(r, ErrWriteShed)
			return
		}
	}
	g := s.route(r, nil)
	if g == nil {
		s.shedBreaker.Add(1)
		s.respond(r, ErrBreakerOpen)
		return
	}
	s.admitted.Add(1)
	s.enqueue(g, r)
}

// route picks r's group, skipping open breakers and the excluded
// group; nil means every eligible group is broken. A write starts at its
// key's home group, so the Alloc of a value and the epoch-deferred Free
// that later retires it run on the same thread and the free is local
// (§3.2.1: a remote free only counts a slab down, stranding the block
// until the whole slab is stolen). A read touches no allocator state, so
// it starts round-robin for load balance. Either way a broken start
// falls through to the next live group in ring order.
func (s *Server) route(r *Request, except *group) *group {
	n := len(s.groups)
	var start int
	if r.Op == OpGet {
		start = int(s.rr.Add(1) % uint64(n))
	} else {
		start = homeGroup(r.Key, n)
	}
	skippedBroken := false
	for i := 0; i < n; i++ {
		g := s.groups[(start+i)%n]
		if g == except {
			continue
		}
		if g.brk.open() {
			skippedBroken = true
			continue
		}
		if skippedBroken {
			s.breakerReroutes.Add(1)
		}
		return g
	}
	return nil
}

// homeGroup maps key to one of n groups. The FNV-1a hash is mixed with
// a Fibonacci multiplier and ranged by its high bits: the fabric places
// shards by FNV-1a mod its shard count, so the raw hash mod n would send
// every key of a shard to one group.
func homeGroup(key []byte, n int) int {
	h := kvstore.KeyHash(key) * 0x9E3779B97F4A7C15
	return int((h >> 32) * uint64(n) >> 32)
}

// enqueue admits r to g's queue, answers whatever the bounded queue
// evicted, and wakes one idle worker of g.
func (s *Server) enqueue(g *group, r *Request) {
	if ev := g.q.push(r); ev != nil {
		s.shedQueueFull.Add(1)
		s.respond(ev, ErrQueueFull)
	}
	wake(g)
}

// wake drops a token for one idle worker of g without blocking. No
// wakeup is lost: the buffer holds one token per worker, so when it is
// full every worker that blocks rechecks its queue at once.
func wake(g *group) {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// reroute drains a just-broken group's queue into live groups, so
// admitted requests don't sit behind a ~400ms watchdog repair.
func (s *Server) reroute(g *group) {
	for _, r := range g.q.drain() {
		t := s.route(r, g)
		if t == nil {
			s.shedBreaker.Add(1)
			s.respond(r, ErrBreakerOpen)
			continue
		}
		s.breakerReroutes.Add(1)
		s.enqueue(t, r)
	}
}

func (s *Server) sampler() {
	defer s.wg.Done()
	for !s.stopped.Load() {
		s.pressure.Store(math.Float64bits(s.cfg.PressureFn()))
		time.Sleep(s.cfg.PressureEvery)
	}
}

func (s *Server) countShed(err error) {
	if err == ErrCoDel {
		s.shedCoDel.Add(1)
	} else {
		s.shedDeadline.Add(1)
	}
}

// pendOp is a write that died mid-execution: kept in Go memory across
// the crash (a panic unwind leaves it exactly as the fault did) and
// resolved against store ground truth after the watchdog repairs the
// slot.
type pendOp struct {
	req     *Request
	ptr     cxlalloc.Ptr // put: captured allocation (0 = Alloc never returned)
	applied bool
	release func() // gate permit, held until the op's fate is settled
}

// settle releases a pend's gate permit (once).
func (p *pendOp) settle() {
	if p.release != nil {
		p.release()
		p.release = nil
	}
}

// worker serves group g from thread slot tid. The loop mirrors the
// livechaos worker's crash discipline: every store op runs inside
// th.Run (heartbeat + watchdog + crash capture); an own-slot crash
// drops the handle, opens the breaker if the group went dark, and
// waits for the watchdog's repair; a crash with a foreign TID means a
// repair hosted by our heartbeat died — our op never ran and is simply
// retried.
func (s *Server) worker(g *group, tid int) {
	defer s.wg.Done()
	th, err := s.cfg.Pod.ThreadOf(tid)
	if err != nil {
		th = nil
	}
	up := true // New pre-registered us as serving
	markUp := func() {
		if !up {
			up = true
			g.brk.workerUp()
		}
	}
	markDown := func() {
		if up {
			up = false
			if g.brk.workerDown() && !s.stopped.Load() {
				s.reroute(g)
			}
		}
	}
	if th == nil {
		markDown()
	}

	// Idle fallback tick: a worker that ran nothing for a whole tick
	// interval runs one benign th.Run, which advances the pod clock,
	// renews its lease and polls the watchdog (an idle pod whose clock
	// stalls past the fabric's DarkGrace is declared dark). ran records
	// whether any th.Run happened since the last tick was taken.
	tick := time.NewTicker(s.idleTick)
	defer tick.Stop()
	ran := false
	var pend *pendOp
	var held *Request
	for {
		if s.stopped.Load() && pend == nil {
			if held != nil {
				s.respond(held, ErrStopped)
			}
			return
		}
		if th == nil {
			if th = s.awaitRepair(tid); th == nil {
				// Stopped while dead. A still-pending write here means the
				// caller tore down with an op in flight; answer with the
				// one honest error left.
				if pend != nil {
					s.respond(pend.req, ErrStopped)
					pend.settle()
					s.pendingCrashed.Add(-1)
				}
				if held != nil {
					s.respond(held, ErrStopped)
				}
				return
			}
			markUp()
		}
		if pend != nil {
			p := pend
			ran = true
			c := th.Run(func() { p.applied = s.resolveCrashed(tid, p) })
			if c != nil {
				if c.TID == tid {
					markDown()
					th = nil
				}
				continue // either way: resolve re-runs (it is idempotent)
			}
			s.crashResolves.Add(1)
			p.req.resp.Applied = p.applied
			pend = nil
			s.respond(p.req, ErrCrashed)
			p.settle()
			s.pendingCrashed.Add(-1)
			continue
		}

		// One reading of both clocks per dequeue: pop checks expiry at
		// this instant, so only a held (retried) request needs a check.
		now, nowTick := time.Now(), s.clockNow()
		req := held
		held = nil
		if req != nil {
			if req.expired(now, nowTick) {
				s.shedDeadline.Add(1)
				s.respond(req, ErrDeadlineExceeded)
				continue
			}
		} else {
			var sheds []shedReq
			req, sheds = g.q.pop(now, nowTick)
			for _, sd := range sheds {
				s.countShed(sd.err)
				s.respond(sd.req, sd.err)
			}
		}
		if req == nil {
			// Idle: a wake token sends us straight back to pop; a tick
			// runs the benign th.Run only if the interval it closes ran
			// nothing, so a worker that keeps losing wake races still
			// ticks at least once per two intervals.
			select {
			case <-g.wake:
				continue
			case <-tick.C:
			}
			if ran {
				ran = false
				continue
			}
			g.idleTicks.Add(1)
			c := th.Run(func() {})
			if c != nil && c.TID == tid {
				markDown()
				th = nil
			}
			continue
		}

		// Execution-time ownership check: the shard may have moved or
		// frozen between routing and dequeue; the permit (release) pins
		// it against a freeze until this op's fate is settled.
		var release func()
		if s.cfg.Gate != nil {
			var gerr error
			release, gerr = s.cfg.Gate(req)
			if gerr != nil {
				s.shedShard.Add(1)
				s.respond(req, gerr)
				continue
			}
		}
		unpin := func() {
			if release != nil {
				release()
				release = nil
			}
		}

		var pc *pendOp
		if req.Op != OpGet {
			pc = &pendOp{req: req}
		}
		executed := false
		ran = true
		c := th.Run(func() {
			executed = true
			s.execute(tid, req, pc)
		})
		if c != nil {
			if c.TID != tid {
				// A hosted repair crashed before our op ran; retry it
				// (through the gate again — ownership may have changed).
				unpin()
				held = req
				continue
			}
			markDown()
			th = nil
			if !executed {
				// Died in the heartbeat phase: the op never started.
				unpin()
				held = req
				continue
			}
			s.workerCrashes.Add(1)
			if req.Op == OpGet {
				// Reads have no effect; the crash is the whole story.
				unpin()
				s.respond(req, ErrCrashed)
			} else {
				// Fate unknown until resolved after repair; the permit
				// rides on the pend so a frozen shard waits for it.
				pc.release = release
				release = nil
				pend = pc
				s.pendingCrashed.Add(1)
			}
			continue
		}
		unpin()
		s.executed.Add(1)
		s.respond(req, req.resp.Err)
	}
}

// awaitRepair blocks until the watchdog has repaired tid (nil once the
// server stops).
func (s *Server) awaitRepair(tid int) *cxlalloc.Thread {
	for {
		if th, err := s.cfg.Pod.ThreadOf(tid); err == nil {
			return th
		}
		if s.stopped.Load() {
			return nil
		}
		time.Sleep(repairPoll)
	}
}

// execute runs one op against the store (inside th.Run).
func (s *Server) execute(tid int, r *Request, pc *pendOp) {
	switch r.Op {
	case OpGet:
		r.Dst, r.resp.Found = s.cfg.Store.Get(tid, r.Key, r.Dst)
		r.resp.Value = r.Dst
	case OpPut:
		err := s.cfg.Store.PutTracked(tid, r.Key, r.Val, func(p cxlalloc.Ptr) { pc.ptr = p })
		if errors.Is(err, cxlalloc.ErrOutOfMemory) {
			// The allocator's authoritative backstop: typed, with a hint —
			// never a panic or a wedged worker.
			s.shedPodFull.Add(1)
			r.resp.Err = &ErrPodFull{Pressure: s.Pressure(), RetryAfter: s.cfg.RetryAfter}
		} else {
			r.resp.Err = err
		}
	case OpDelete:
		r.resp.Found = s.cfg.Store.Delete(tid, r.Key)
	}
}

// resolveCrashed settles a crashed write against ground truth (inside
// th.Run on the repaired slot). It may itself crash and re-run; every
// step is idempotent, with pointer ownership popped before any free.
func (s *Server) resolveCrashed(tid int, p *pendOp) bool {
	r := p.req
	if r.Op == OpPut {
		applied := false
		if p.ptr != 0 {
			if s.cfg.Store.Linked(tid, r.Key, p.ptr) {
				applied = true
			} else {
				ptr := p.ptr
				p.ptr = 0
				s.cfg.Store.FreeOrphan(tid, ptr)
			}
		}
		// A Put that crashed between its head CAS and retiring the old
		// entry leaves two live nodes; restore the invariant.
		s.cfg.Store.Sweep(tid, r.Key)
		return applied
	}
	// Delete: applied iff the displaced version is gone. The versioned
	// client keeps the key single-writer, so any other version is
	// impossible while this op is unresolved.
	r.Dst, r.resp.Found = s.cfg.Store.Get(tid, r.Key, r.Dst)
	if !r.resp.Found {
		return true
	}
	if s.cfg.DecodeVer != nil {
		if v, err := s.cfg.DecodeVer(r.KeyID, r.Dst); err == nil && v != r.PrevVer {
			return true
		}
	}
	return false
}
