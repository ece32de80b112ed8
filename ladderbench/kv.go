package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/fabric"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/server"
	"cxlalloc/internal/telemetry"
)

// The kv workloads drive one seeded op stream through three rungs of
// the service stack: kvstore (direct Store calls inside Thread.Run),
// server (one pod's Server), and fabric (the 2-pod Fabric, the system
// the end-to-end metrics describe). A layer's self time is its rung's
// latency minus the rung below.

const (
	kvLanes       = 2       // closed-loop lanes (kv-update)
	kvOpsPerLane  = 1 << 17 // pregenerated ops per lane; the stream wraps
	readLargeRate = 2000.0  // open-loop arrivals per second (kv-read-large)
	sloLimit      = 5 * time.Millisecond
	openSlots     = 256 // open-loop requests in flight at most
	kvBuckets     = 1024
	fabricPods    = 2
	fabricQueue   = 64 // the fabric's per-group admission queue bound
)

type rung int

const (
	rungStore rung = iota
	rungServer
	rungFabric
)

// timingAlloc wraps a store's allocator and records a span around every
// Alloc and Free on the calling thread's recorder (nil: not recorded).
type timingAlloc struct {
	alloc.Allocator
	recs []*recorder // by tid
	cur  []uint32    // by tid: id of the request in flight
}

func (t *timingAlloc) Alloc(tid, size int) (alloc.Ptr, error) {
	r := t.recs[tid]
	if r == nil {
		return t.Allocator.Alloc(tid, size)
	}
	t0 := time.Now()
	p, err := t.Allocator.Alloc(tid, size)
	r.add(t.cur[tid], stAlloc, t0, time.Now())
	return p, err
}

func (t *timingAlloc) Free(tid int, p alloc.Ptr) {
	r := t.recs[tid]
	if r == nil {
		t.Allocator.Free(tid, p)
		return
	}
	t0 := time.Now()
	t.Allocator.Free(tid, p)
	r.add(t.cur[tid], stFree, t0, time.Now())
}

// reqSlot is one request in flight and what the benchmark knows about
// it. Closed-loop lane l owns slot l; open-loop requests cycle through
// a pool. Request.KeyID carries the slot index, so the server rung's
// Gate hook can stamp the slot.
type reqSlot struct {
	req     *server.Request
	op      kvOp
	variant int8
	id      uint32
	due     time.Time // open loop: when the request was due
	submit  time.Time // start of the last Submit call
	gate    time.Time // server rung: execution start, stamped by Gate
}

// kvSystem is one set-up rung: the system under test plus the handles
// the benchmark drives it through.
type kvSystem struct {
	rung  rung
	fab   *fabric.Fabric
	bp    *benchPod // store and server rungs
	store *kvstore.Store
	ta    *timingAlloc
	srv   *server.Server
	slots []reqSlot
}

func newKVSystem(in *kvInputs, r rung, nSlots int) (*kvSystem, error) {
	s := &kvSystem{rung: r, slots: make([]reqSlot, nSlots)}
	for i := range s.slots {
		s.slots[i].req = server.NewRequest()
	}
	if r == rungFabric {
		f, err := fabric.New(fabric.Config{Pods: fabricPods, Threads: podThreads, Procs: podProcs, Buckets: kvBuckets, QueueCap: fabricQueue})
		if err != nil {
			return nil, err
		}
		s.fab = f
	} else {
		bp, err := newBenchPod(podProcs)
		if err != nil {
			return nil, err
		}
		s.bp = bp
		var mem alloc.Allocator = alloc.NewCXL(bp.pod.Heap(), "cxlalloc")
		if r == rungStore {
			s.ta = &timingAlloc{Allocator: mem, recs: make([]*recorder, podThreads+1), cur: make([]uint32, podThreads+1)}
			mem = s.ta
		}
		s.store = kvstore.New(mem, kvBuckets, podThreads+1)
	}
	for k := range in.keys {
		if err := s.onOwner(in.keys[k], func(st *kvstore.Store, tid int) error {
			return st.Put(tid, in.keys[k], in.vals[k][0])
		}); err != nil {
			s.stop()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	s.publish()
	if r == rungServer {
		s.srv = server.New(server.Config{
			Pod:      s.bp.pod,
			Store:    s.store,
			Groups:   s.bp.groups,
			QueueCap: fabricQueue,
			Gate: func(req *server.Request) (func(), error) {
				s.slots[req.KeyID].gate = time.Now()
				return nil, nil
			},
		})
	}
	return s, nil
}

// onOwner runs fn on the control thread of the pod that owns key.
func (s *kvSystem) onOwner(key []byte, fn func(st *kvstore.Store, tid int) error) error {
	var err error
	if s.fab != nil {
		p, _ := s.fab.Owner(s.fab.ShardOfKey(key))
		if aerr := s.fab.AgentRun(p, func(tid int) { err = fn(s.fab.Store(p), tid) }); aerr != nil {
			return aerr
		}
		return err
	}
	if c := s.bp.agent.Run(func() { err = fn(s.store, podThreads) }); c != nil {
		return fmt.Errorf("control thread crashed at %s", c.Point)
	}
	return err
}

func (s *kvSystem) stop() {
	switch {
	case s.fab != nil:
		s.fab.Stop()
	case s.srv != nil:
		s.srv.Stop()
	}
}

func (s *kvSystem) pods() int {
	if s.fab != nil {
		return fabricPods
	}
	return 1
}

// publish makes the next snapshot exact by refreshing every thread's
// published counter mirrors. It is only called while no request is in
// flight: idle server workers touch nothing but HWcc words (heartbeat,
// queue polling), and every op a worker ran happened before its answer
// was received.
func (s *kvSystem) publish() {
	for i := 0; i < s.pods(); i++ {
		if s.fab != nil {
			s.fab.Pod(i).Heap().PublishStats()
		} else {
			s.bp.pod.Heap().PublishStats()
		}
	}
}

// snapshot sums every pod's unified snapshot, with server counters.
func (s *kvSystem) snapshot() telemetry.Snapshot {
	var sum telemetry.Snapshot
	for i := 0; i < s.pods(); i++ {
		var p telemetry.Snapshot
		switch {
		case s.fab != nil:
			p = s.fab.Pod(i).Snapshot()
			p.Server = s.fab.Server(i).Stats()
		default:
			p = s.bp.pod.Snapshot()
			if s.srv != nil {
				p.Server = s.srv.Stats()
			}
		}
		sum = addSnapshots(sum, p)
	}
	return sum
}

// addSnapshots returns a+b field-wise (Delta against the negation).
func addSnapshots(a, b telemetry.Snapshot) telemetry.Snapshot {
	var zero telemetry.Snapshot
	return a.Delta(zero.Delta(b))
}

func (s *kvSystem) storeStats() kvstore.Stats {
	if s.fab == nil {
		return s.store.Stats()
	}
	var t kvstore.Stats
	for i := 0; i < fabricPods; i++ {
		st := s.fab.Store(i).Stats()
		t.Inserts += st.Inserts
		t.Replaces += st.Replaces
		t.Deletes += st.Deletes
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Reclaimed += st.Reclaimed
	}
	return t
}

// footprint sums the heap footprint over pods, read on control threads.
func (s *kvSystem) footprint() (uint64, error) {
	var total uint64
	for i := 0; i < s.pods(); i++ {
		if s.fab != nil {
			heap := s.fab.Pod(i).Heap()
			if err := s.fab.AgentRun(i, func(tid int) { total += heap.Footprint(tid).Total() }); err != nil {
				return 0, err
			}
			continue
		}
		if c := s.bp.agent.Run(func() { total += s.bp.agent.Footprint().Total() }); c != nil {
			return 0, fmt.Errorf("control thread crashed at %s", c.Point)
		}
	}
	return total, nil
}

// faultFree checks that nothing failed or recovered during the run:
// otherwise the numbers would measure recovery, not the program.
func (s *kvSystem) faultFree(name string) []string {
	var p []string
	if s.fab != nil {
		st := s.fab.Stats()
		if st.PodDarks != 0 || st.Failovers != 0 || st.FalseShardTakeovers != 0 {
			p = append(p, fmt.Sprintf("%s: fabric not fault-free: %d pod darks, %d failovers, %d false shard takeovers", name, st.PodDarks, st.Failovers, st.FalseShardTakeovers))
		}
		for _, v := range s.fab.Violations() {
			p = append(p, name+": fabric violation: "+v)
		}
		for i := 0; i < fabricPods; i++ {
			p = append(p, faultFreePod(s.fab.Pod(i), name)...)
			if c := s.fab.Server(i).Stats().WorkerCrashes; c != 0 {
				p = append(p, fmt.Sprintf("%s: pod %d server: %d worker crashes", name, i, c))
			}
		}
		return p
	}
	p = append(p, faultFreePod(s.bp.pod, name)...)
	if s.srv != nil {
		if c := s.srv.Stats().WorkerCrashes; c != 0 {
			p = append(p, fmt.Sprintf("%s: server: %d worker crashes", name, c))
		}
	}
	return p
}

// kvResult is one answered request.
type kvResult struct {
	err   error
	found bool
	val   []byte
	done  time.Time // when the answer was produced
}

// exec runs slot's request synchronously on the store rung, on lane
// thread tid, inside Thread.Run.
func (s *kvSystem) exec(tid int, sl *reqSlot, rec *recorder) kvResult {
	th := s.bp.threads[tid]
	r := sl.req
	var res kvResult
	var in0, in1 time.Time
	s.ta.cur[tid] = sl.id
	t0 := time.Now()
	c := th.Run(func() {
		in0 = time.Now()
		switch sl.op.kind {
		case opGet:
			r.Dst, res.found = s.store.Get(tid, r.Key, r.Dst)
			res.val = r.Dst
		case opPut:
			res.err = s.store.Put(tid, r.Key, r.Val)
		case opDelete:
			res.found = s.store.Delete(tid, r.Key)
		}
		in1 = time.Now()
	})
	res.done = time.Now()
	if c != nil {
		res.err = fmt.Errorf("thread %d crashed at %s", tid, c.Point)
		return res
	}
	if rec != nil {
		rec.add(sl.id, stRun, t0, res.done)
		rec.add(sl.id, opStage[sl.op.kind], in0, in1)
	}
	return res
}

// opStage is the kvstore span stage of each op kind.
var opStage = [...]int{opGet: stGet, opPut: stPut, opDelete: stDelete}

// timedSubmitter times every Submit call into one goroutine's recorder
// and stamps the slot with the call's start.
type timedSubmitter struct {
	next server.Submitter
	s    *kvSystem
	rec  *recorder
}

func (t *timedSubmitter) Submit(r *server.Request) {
	sl := &t.s.slots[r.KeyID]
	t0 := time.Now()
	sl.submit = t0
	t.next.Submit(r)
	if t.rec != nil {
		t.rec.add(sl.id, stSubmit, t0, time.Now())
	}
}

func (s *kvSystem) submitter() server.Submitter {
	if s.fab != nil {
		return s.fab
	}
	return s.srv
}

// kvTally is one goroutine's view of a window.
type kvTally struct {
	rec     *recorder
	p       parts // [0] gets, [1] puts and deletes
	problem string
	retries uint64
}

// kvLoad runs windows of a kv workload against one system.
type kvLoad struct {
	in     *kvInputs
	closed bool
	// state[k] is key k's expected content: the stored variant, -1 for
	// absent, or unknown after a failed write. Lane l alone touches the
	// keys it owns.
	state []int8
}

const stateUnknown int8 = -2

func newKVLoad(in *kvInputs) *kvLoad {
	return &kvLoad{in: in, closed: in.due == nil, state: make([]int8, len(in.keys))}
}

// prepare loads op into slot's request.
func (d *kvLoad) prepare(sl *reqSlot, op kvOp, id uint32, slotIdx int) {
	r := sl.req
	r.Reset()
	r.Key = d.in.keys[op.key]
	r.Val = nil
	r.KeyID = slotIdx
	sl.op, sl.id, sl.variant = op, id, 0
	switch op.kind {
	case opGet:
		r.Op = server.OpGet
	case opDelete:
		r.Op = server.OpDelete
	case opPut:
		r.Op = server.OpPut
		if d.closed {
			// The next variant after the stored one, so a stale read
			// differs from the expected bytes.
			if st := d.state[op.key]; st >= 0 {
				sl.variant = (st + 1) % int8(len(d.in.vals[op.key]))
			}
		}
		r.Val = d.in.vals[op.key][sl.variant]
	}
}

// check compares one answer with the expected state of its key and
// reports whether it was correct. Closed loops then advance the state.
func (d *kvLoad) check(sl *reqSlot, res kvResult, t *kvTally) bool {
	k := sl.op.key
	want := int8(0) // open loop: every key always holds its one value
	if d.closed {
		want = d.state[k]
	}
	bad := func(format string, args ...any) bool {
		if t.problem == "" {
			t.problem = fmt.Sprintf("key %d: ", k) + fmt.Sprintf(format, args...)
		}
		return false
	}
	if res.err != nil {
		if d.closed && sl.op.kind != opGet {
			d.state[k] = stateUnknown
		}
		return false // a failure, not a wrong answer
	}
	switch sl.op.kind {
	case opGet:
		if want == stateUnknown {
			return true
		}
		if res.found != (want >= 0) {
			return bad("get found=%v, want %v", res.found, want >= 0)
		}
		if res.found && !bytes.Equal(res.val, d.in.vals[k][want]) {
			return bad("get returned %d bytes that differ from the expected value", len(res.val))
		}
	case opPut:
		if d.closed {
			d.state[k] = sl.variant
		}
	case opDelete:
		if want != stateUnknown && res.found != (want >= 0) {
			return bad("delete found=%v, want %v", res.found, want >= 0)
		}
		if d.closed {
			d.state[k] = -1
		}
	}
	return true
}

// finish records one answered request, in the given part of the window.
func (d *kvLoad) finish(sl *reqSlot, res kvResult, lat time.Duration, part int, t *kvTally) {
	var c0 time.Time
	if t.rec != nil {
		c0 = time.Now()
	}
	ok := d.check(sl, res, t)
	if t.rec != nil {
		t.rec.add(sl.id, stCheck, c0, time.Now())
	}
	kind := 0
	if sl.op.kind != opGet {
		kind = 1
	}
	t.p.add(part, kind, lat, true, ok)
}

func respResult(resp *server.Response) kvResult {
	return kvResult{err: resp.Err, found: resp.Found, val: resp.Value, done: resp.DoneWall}
}

// serverSpans records the server rung's Submit → Gate → done split.
func serverSpans(s *kvSystem, sl *reqSlot, res kvResult, rec *recorder) {
	if rec == nil || s.rung != rungServer || sl.gate.IsZero() {
		return
	}
	rec.add(sl.id, stQueue, sl.submit, sl.gate)
	rec.add(sl.id, stExec, sl.gate, res.done)
}

// window runs the workload against s for dur and returns one tally per
// driving goroutine.
func (d *kvLoad) window(s *kvSystem, dur time.Duration, traced bool, seed uint64) []*kvTally {
	epoch := time.Now()
	newTally := func() *kvTally {
		t := &kvTally{}
		if traced {
			t.rec = newRecorder(epoch)
		}
		return t
	}
	if d.closed {
		tallies := make([]*kvTally, len(d.in.lanes))
		for l := range tallies {
			tallies[l] = newTally()
		}
		start := time.Now()
		var wg sync.WaitGroup
		for l := range d.in.lanes {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				d.lane(s, l, start, dur, tallies[l], seed)
			}(l)
		}
		wg.Wait()
		return tallies
	}
	gen, col := newTally(), newTally()
	d.openLoop(s, time.Now(), dur, gen, col)
	return []*kvTally{gen, col}
}

// lane is one closed-loop client: the next request goes out when the
// previous one is answered.
func (d *kvLoad) lane(s *kvSystem, l int, start time.Time, dur time.Duration, t *kvTally, seed uint64) {
	deadline := start.Add(dur)
	ops := d.in.lanes[l]
	sl := &s.slots[l]
	var client *server.Client
	if s.rung != rungStore {
		client = server.NewClient(&timedSubmitter{next: s.submitter(), s: s, rec: t.rec}, seed+uint64(l))
	}
	if t.rec != nil && s.ta != nil {
		s.ta.recs[l] = t.rec
		defer func() { s.ta.recs[l] = nil }()
	}
	for id := uint32(0); time.Now().Before(deadline); id++ {
		d.prepare(sl, ops[int(id)%len(ops)], id, l)
		sl.gate = time.Time{}
		t0 := time.Now()
		var res kvResult
		if client == nil {
			res = s.exec(l, sl, t.rec)
		} else {
			res = respResult(client.Do(sl.req))
		}
		t1 := time.Now()
		if t.rec != nil {
			t.rec.add(id, stRequest, t0, t1)
			serverSpans(s, sl, res, t.rec)
		}
		d.finish(sl, res, t1.Sub(t0), partOf(t0.Sub(start), dur), t)
	}
	if client != nil {
		t.retries = client.Retries()
	}
}

// openLoop paces Poisson arrivals from one generator: each request is
// sent when due whether or not earlier ones were answered, and its
// latency counts from when it was due. The pacer sleeps in coarse
// quanta and sends everything due on waking, so a late wake-up shows as
// lag, not as lost load.
func (d *kvLoad) openLoop(s *kvSystem, start time.Time, dur time.Duration, gen, col *kvTally) {
	ops := d.in.lanes[0]
	stop := start.Add(dur)
	if s.rung == rungStore && gen.rec != nil {
		s.ta.recs[0] = gen.rec
		defer func() { s.ta.recs[0] = nil }()
	}
	free := make(chan int, len(s.slots))
	fifo := make(chan int, len(s.slots))
	for i := range s.slots {
		free <- i
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for idx := range fifo {
			sl := &s.slots[idx]
			res := respResult(sl.req.Wait())
			if col.rec != nil {
				col.rec.add(sl.id, stRequest, sl.submit, res.done)
				serverSpans(s, sl, res, col.rec)
			}
			d.finish(sl, res, res.done.Sub(sl.due), partOf(sl.due.Sub(start), dur), col)
			free <- idx
		}
	}()
	sub := &timedSubmitter{s: s, rec: gen.rec}
	if s.rung != rungStore {
		sub.next = s.submitter()
	}
	for i := 0; i < len(d.in.due); i++ {
		due := start.Add(d.in.due[i])
		if due.After(stop) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		idx := <-free
		sl := &s.slots[idx]
		d.prepare(sl, ops[i], uint32(i), idx)
		sl.due, sl.gate = due, time.Time{}
		now := time.Now()
		if gen.rec != nil {
			gen.rec.add(sl.id, stLag, due, now)
		}
		if s.rung == rungStore {
			sl.submit = now
			res := s.exec(0, sl, gen.rec)
			if gen.rec != nil {
				gen.rec.add(sl.id, stRequest, now, res.done)
			}
			d.finish(sl, res, res.done.Sub(due), partOf(due.Sub(start), dur), gen)
			free <- idx
			continue
		}
		sub.Submit(sl.req)
		fifo <- idx
	}
	close(fifo)
	wg.Wait()
}

// audit re-reads every key with a known expected state on its owner pod
// once the window has drained.
func (d *kvLoad) audit(s *kvSystem) []string {
	var problems []string
	var dst []byte
	for k, key := range d.in.keys {
		want := d.state[k]
		if !d.closed {
			want = 0
		}
		if want == stateUnknown {
			continue
		}
		var found bool
		err := s.onOwner(key, func(st *kvstore.Store, tid int) error {
			dst, found = st.Get(tid, key, dst)
			return nil
		})
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("audit of key %d: %v", k, err))
		case found != (want >= 0):
			problems = append(problems, fmt.Sprintf("audit: key %d present=%v, want %v", k, found, want >= 0))
		case found && !bytes.Equal(dst, d.in.vals[k][want]):
			problems = append(problems, fmt.Sprintf("audit: key %d holds bytes that differ from the expected value", k))
		}
		if len(problems) >= 8 {
			break
		}
	}
	return problems
}

// liveBytes is the user bytes the expected state holds.
func (d *kvLoad) liveBytes() int64 {
	var n int64
	for k := range d.in.keys {
		want := d.state[k]
		if !d.closed {
			want = 0
		}
		if want >= 0 {
			n += int64(d.in.entryBytes(k, int(want)))
		}
	}
	return n
}
