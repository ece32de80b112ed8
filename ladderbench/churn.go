package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/telemetry"
)

// alloc-churn: two threads of one process on one pod call Alloc and Free
// directly, the threadtest/xmalloc shape of the paper's §5.2.2. Each
// thread keeps a bounded live set; one freed block in four is handed to
// the other thread and freed there (the remote-free path, §3.2.1).

const (
	churnLive   = 2048          // live-set slots per thread
	churnSteps  = 1 << 20       // pregenerated steps per thread; the stream wraps
	churnWarmup = 8 * churnLive // untimed steps per thread before the first window
	sampleEvery = 16            // untraced windows time one call in this many
	handoffCap  = 1024
)

// churnBlock is one live allocation and the tag written into its first
// 8 bytes; the tag is checked again right before the block is freed.
type churnBlock struct {
	p    cxlalloc.Ptr
	size int32
	tag  uint64
}

// handoff carries blocks from one churn thread to the other: a bounded
// single-producer, single-consumer ring.
type handoff struct {
	buf        [handoffCap]churnBlock
	head, tail atomic.Uint64
}

func (h *handoff) push(b churnBlock) bool {
	t := h.tail.Load()
	if t-h.head.Load() == handoffCap {
		return false
	}
	h.buf[t%handoffCap] = b
	h.tail.Store(t + 1)
	return true
}

func (h *handoff) pop() (churnBlock, bool) {
	hd := h.head.Load()
	if hd == h.tail.Load() {
		return churnBlock{}, false
	}
	b := h.buf[hd%handoffCap]
	h.head.Store(hd + 1)
	return b, true
}

// churner is one alloc-churn thread. All fields but done belong to the
// churner's goroutine while a phase runs.
type churner struct {
	id   int
	th   *cxlalloc.Thread
	ops  []churnOp
	pos  int
	live []churnBlock
	in   *handoff // blocks the peer hands over, freed here
	peer *churner
	done atomic.Bool
	seq  uint64

	// Per-window tallies, reset by resetWindow.
	allocs, frees, failed int64
	calls                 int64
	part                  int               // part of the window running now
	opsPart               [subWindows]int64 // Alloc+Free calls per part
	sampled               parts             // sampled call latencies: alloc, free
	rec                   *recorder         // traced windows: a span around every call
	problem               string            // first correctness failure
}

func (c *churner) resetWindow(rec *recorder) {
	c.allocs, c.frees, c.failed, c.calls = 0, 0, 0, 0
	c.part, c.opsPart, c.sampled = 0, [subWindows]int64{}, parts{}
	c.rec = rec
}

func (c *churner) fail(format string, args ...any) {
	c.failed++
	if c.problem == "" {
		c.problem = fmt.Sprintf("alloc-churn thread %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

func (c *churner) alloc(size int) churnBlock {
	c.calls++
	var p cxlalloc.Ptr
	var err error
	switch {
	case c.rec != nil:
		t0 := time.Now()
		p, err = c.th.Alloc(size)
		c.rec.add(uint32(c.calls), stAlloc, t0, time.Now())
	case c.calls%sampleEvery == 0:
		t0 := time.Now()
		p, err = c.th.Alloc(size)
		c.sampled.add(c.part, 0, time.Since(t0), err == nil, err == nil)
	default:
		p, err = c.th.Alloc(size)
	}
	c.opsPart[c.part]++
	if err != nil {
		c.fail("Alloc(%d): %v", size, err)
		return churnBlock{}
	}
	c.allocs++
	c.seq++
	b := churnBlock{p: p, size: int32(size), tag: uint64(c.id)<<56 | c.seq}
	binary.LittleEndian.PutUint64(c.th.Bytes(p, 8), b.tag)
	return b
}

func (c *churner) free(b churnBlock) {
	if got := binary.LittleEndian.Uint64(c.th.Bytes(b.p, 8)); got != b.tag {
		c.fail("block %#x: tag %#x, want %#x (overlapping allocations)", b.p, got, b.tag)
	}
	c.calls++
	switch {
	case c.rec != nil:
		t0 := time.Now()
		c.th.Free(b.p)
		c.rec.add(uint32(c.calls), stFree, t0, time.Now())
	case c.calls%sampleEvery == 0:
		t0 := time.Now()
		c.th.Free(b.p)
		c.sampled.add(c.part, 1, time.Since(t0), true, true)
	default:
		c.th.Free(b.p)
	}
	c.opsPart[c.part]++
	c.frees++
}

func (c *churner) drain() {
	for b, ok := c.in.pop(); ok; b, ok = c.in.pop() {
		c.free(b)
	}
}

// step replaces one live-set slot: free (or hand off) its block, then
// allocate the new one.
func (c *churner) step() {
	c.drain()
	op := c.ops[c.pos%len(c.ops)]
	c.pos++
	slot := &c.live[op.victim]
	if slot.p != 0 {
		if op.remote {
			for !c.peer.in.push(*slot) {
				c.drain()
				runtime.Gosched()
			}
		} else {
			c.free(*slot)
		}
	}
	*slot = c.alloc(int(op.size))
}

// churnPhase runs every churner until stop holds (checked every 64
// steps). A churner that stops keeps freeing what its peer hands over
// until the peer has stopped too, so no block is left in flight.
func churnPhase(cs []*churner, stop func(c *churner) bool) {
	var wg sync.WaitGroup
	for _, c := range cs {
		c.done.Store(false)
	}
	for _, c := range cs {
		wg.Add(1)
		go func(c *churner) {
			defer wg.Done()
			for !stop(c) {
				for i := 0; i < 64; i++ {
					c.step()
				}
			}
			c.done.Store(true)
			for !c.peer.done.Load() {
				c.drain()
				runtime.Gosched()
			}
			c.drain()
		}(c)
	}
	wg.Wait()
}

// churnSystem is one set-up alloc-churn pod with its two threads warm.
type churnSystem struct {
	bp *benchPod
	cs []*churner
}

func newChurnSystem(streams [][]churnOp) (*churnSystem, error) {
	bp, err := newBenchPod(1)
	if err != nil {
		return nil, err
	}
	s := &churnSystem{bp: bp}
	for i, th := range bp.threads {
		s.cs = append(s.cs, &churner{id: i, th: th, ops: streams[i], live: make([]churnBlock, churnLive), in: new(handoff)})
	}
	s.cs[0].peer, s.cs[1].peer = s.cs[1], s.cs[0]
	for _, c := range s.cs {
		c.resetWindow(nil)
		for i := range c.live {
			c.live[i] = c.alloc(int(c.ops[i].size))
		}
	}
	return s, nil
}

// warmUp churns untimed until the heaps have grown to their steady
// shape, so the window measures steady-state churn.
func (s *churnSystem) warmUp() {
	churnPhase(s.cs, func(c *churner) bool { return c.pos >= churnWarmup })
}

// churnWindow is what one measured window observed.
type churnWindow struct {
	ops, failed int64
	opsPart     [subWindows]int64
	elapsed     time.Duration
	delta       telemetry.Snapshot
	sampled     parts
	spans       *spanSet // traced windows only
	liveBytes   int64
	footprint   uint64
}

func (s *churnSystem) window(d time.Duration, traced bool) churnWindow {
	heap := s.bp.pod.Heap()
	epoch := time.Now()
	recs := make([]*recorder, len(s.cs))
	for i, c := range s.cs {
		if traced {
			recs[i] = newRecorder(epoch)
		}
		c.resetWindow(recs[i])
	}
	heap.PublishStats()
	before := s.bp.pod.Snapshot()
	start := time.Now()
	deadline := start.Add(d)
	churnPhase(s.cs, func(c *churner) bool {
		now := time.Now()
		c.part = partOf(now.Sub(start), d)
		return now.After(deadline)
	})
	w := churnWindow{elapsed: time.Since(start)}
	heap.PublishStats()
	w.delta = s.bp.pod.Snapshot().Delta(before)
	for _, c := range s.cs {
		w.ops += c.allocs + c.frees
		w.failed += c.failed
		for i, n := range c.opsPart {
			w.opsPart[i] += n
		}
		w.sampled.merge(&c.sampled)
		for _, b := range c.live {
			w.liveBytes += int64(b.size)
		}
	}
	if traced {
		w.spans = mergeRecorders(recs...)
	}
	w.footprint = s.cs[0].th.Footprint().Total()
	return w
}

// teardown frees every live block, drains the magazines and audits the
// heap empty; any leak or corruption is a correctness failure.
func (s *churnSystem) teardown() []string {
	var problems []string
	for _, c := range s.cs {
		c.resetWindow(nil)
		for i, b := range c.live {
			if b.p != 0 {
				c.free(b)
				c.live[i] = churnBlock{}
			}
		}
		c.th.DrainMagazines()
	}
	for _, c := range s.cs {
		if c.problem != "" {
			problems = append(problems, c.problem)
		}
	}
	heap := s.bp.pod.Heap()
	if err := heap.CheckAll(0); err != nil {
		problems = append(problems, "alloc-churn invariants: "+err.Error())
	}
	// The audit reads shared metadata through the device image, so every
	// thread's cached dirt must reach the device first.
	heap.DrainCaches()
	if err := heap.AuditEmpty(0); err != nil {
		problems = append(problems, "alloc-churn audit: "+err.Error())
	}
	return append(problems, faultFreePod(s.bp.pod, "alloc-churn")...)
}

func runChurn(o runOpts) (metrics, int64, int64, []string) {
	streams := make([][]churnOp, podThreads)
	for i := range streams {
		streams[i] = genChurn(o.seed, i, churnSteps, churnLive)
	}
	var s *churnSystem
	setup, err := timeSetup(func() error {
		var err error
		s, err = newChurnSystem(streams)
		return err
	}, nil)
	if err != nil {
		return nil, 0, 0, []string{err.Error()}
	}
	if o.plant == plantLeak {
		s.cs[0].alloc(64)
	}
	s.warmUp()

	m := metrics{}
	m.set("setup_s", setup)
	untracedLen := o.window
	if o.trace {
		untracedLen = o.window / 2
	}
	w := s.window(untracedLen, false)
	attempted, failed := w.ops+w.failed, w.failed
	tput := float64(w.ops) / w.elapsed.Seconds()

	if !o.trace {
		// On alloc-churn the read side is Alloc and the write side Free;
		// latencies are sampled, one call in sampleEvery.
		w.sampled.report(m, w.opsPart, untracedLen/subWindows)
		m.set("ok_frac", 1-ratio(float64(failed), float64(attempted)))
		m.set("footprint_per_live_byte", ratio(float64(w.footprint), float64(w.liveBytes)))
	} else {
		tw := s.window(o.window-untracedLen, true)
		attempted += tw.ops + tw.failed
		failed += tw.failed
		// Layers alloc-churn does not touch (server, fabric, kvstore,
		// epoch, liveness, open-loop lag) read 0.
		for _, d := range perLayer {
			m.set(d.name, 0)
		}
		counterMetrics(m, w.delta, float64(w.ops))
		sp := tw.spans
		callNs := float64(sp.sum[stAlloc] + sp.sum[stFree])
		all := append(append([]int64(nil), sp.durs[stAlloc]...), sp.durs[stFree]...)
		sortInt64(all)
		m.set("tail.lat_p99_us", quantile(all, 0.99)/1e3)
		m.set("tail.get_p99_us", sp.quantileNs(stAlloc, 0.99)/1e3)
		m.set("tail.write_p99_us", sp.quantileNs(stFree, 0.99)/1e3)
		m.set("core.alloc_ns", sp.meanNs(stAlloc))
		m.set("core.free_ns", sp.meanNs(stFree))
		m.set("core.footprint_mb", float64(tw.footprint)/(1<<20))
		m.set("host.ns_per_op", ratio(callNs, float64(tw.ops)))
		// Everything a thread did in the window outside Alloc and Free is
		// the generator's: stepping the stream, tags, handoff.
		m.set("loadgen.ns_per_op", ratio(float64(podThreads)*float64(tw.elapsed.Nanoseconds())-callNs, float64(tw.ops)))
		m.set("trace.overhead_frac", tput/(float64(tw.ops)/tw.elapsed.Seconds())-1)
	}
	problems := s.teardown()
	return m, attempted, failed, problems
}
