package main

import (
	"time"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/telemetry"
)

// Stages name the layer boundary a span was recorded at. Every span is
// timed from the benchmark's own files, around a call into a layer's
// public surface; library code carries no instrumentation.
const (
	stAlloc   = iota // core: Thread.Alloc / Allocator.Alloc
	stFree           // core: Thread.Free / Allocator.Free
	stGet            // kvstore: Store.Get
	stPut            // kvstore: Store.Put
	stDelete         // kvstore: Store.Delete
	stRun            // liveness: Thread.Run around one store call
	stSubmit         // server or fabric: the Submit call itself
	stQueue          // server: Submit start → Config.Gate (execution start)
	stExec           // server: Config.Gate → Response.DoneWall
	stRequest        // one request at the rung, dispatch → completion
	stCheck          // loadgen: checking one response
	stLag            // loadgen: open-loop due time → dispatch
	numStages
)

// span is one timed interval. Spans of one request share id.
type span struct {
	id    uint32
	stage uint8
	start int64 // ns since the recorder's epoch
	dur   int64
}

// spanCap bounds the spans one recorder keeps. Sums and counts stay
// exact past the cap; the kept spans thin to an even sample of the
// whole window, from which percentiles come.
const spanCap = 1 << 19

// recorder keeps one goroutine's spans in memory until the run ends.
// It is owned by a single goroutine; merge only after that goroutine
// has been joined.
type recorder struct {
	epoch  time.Time
	spans  []span
	sum    [numStages]int64
	n      [numStages]int64
	seen   int64
	stride int64 // keep one span in stride
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1024), stride: 1}
}

func (r *recorder) add(id uint32, stage int, start, end time.Time) {
	d := end.Sub(start).Nanoseconds()
	r.sum[stage] += d
	r.n[stage]++
	if r.seen++; r.seen%r.stride != 0 {
		return
	}
	if len(r.spans) == spanCap {
		// Halve the sample: keep every other span, then keep half as often.
		for i := 0; i < spanCap/2; i++ {
			r.spans[i] = r.spans[2*i+1]
		}
		r.spans = r.spans[:spanCap/2]
		r.stride *= 2
	}
	r.spans = append(r.spans, span{id: id, stage: uint8(stage), start: start.Sub(r.epoch).Nanoseconds(), dur: d})
}

// spanSet is the merged view of several recorders.
type spanSet struct {
	sum  [numStages]int64
	n    [numStages]int64
	durs [numStages][]int64 // sorted
}

func mergeRecorders(rs ...*recorder) *spanSet {
	s := &spanSet{}
	for _, r := range rs {
		if r == nil {
			continue
		}
		for i := range s.sum {
			s.sum[i] += r.sum[i]
			s.n[i] += r.n[i]
		}
		for _, sp := range r.spans {
			s.durs[sp.stage] = append(s.durs[sp.stage], sp.dur)
		}
	}
	for i := range s.durs {
		sortInt64(s.durs[i])
	}
	return s
}

// meanNs is the exact mean duration of stage's spans (0 if none).
func (s *spanSet) meanNs(stage int) float64 {
	if s.n[stage] == 0 {
		return 0
	}
	return float64(s.sum[stage]) / float64(s.n[stage])
}

// quantileNs is stage's q-quantile duration (0 if none).
func (s *spanSet) quantileNs(stage int, q float64) float64 {
	return quantile(s.durs[stage], q)
}

// counterMetrics turns pod snapshot deltas over a window into the
// per-op counter rows of the core, memsim, nmp/atomicx, liveness and
// device layers.
func counterMetrics(m metrics, d telemetry.Snapshot, ops float64) {
	c := d.Cache
	m.set("core.allocs_per_op", ratio(float64(d.Alloc.SmallAllocs+d.Alloc.LargeAllocs+d.Alloc.HugeAllocs), ops))
	m.set("memsim.fetches_per_op", ratio(float64(c.Fetches), ops))
	m.set("memsim.writebacks_per_op", ratio(float64(c.Writebacks), ops))
	m.set("memsim.flushes_per_op", ratio(float64(c.Flushes), ops))
	m.set("memsim.fences_per_op", ratio(float64(c.Fences), ops))
	m.set("memsim.hit_rate", ratio(float64(c.Hits), float64(c.Loads+c.Stores)))
	m.set("nmp.mcas_per_op", ratio(float64(d.NMP.SpRds), ops))
	m.set("nmp.conflict_frac", ratio(float64(d.NMP.Conflicts), float64(d.NMP.SpRds)))
	m.set("atomicx.mcas_retries_per_op", ratio(float64(d.HW.MCASRetries), ops))
	m.set("liveness.renews_per_op", ratio(float64(d.Liveness.Renews), ops))
	m.set("liveness.claims", float64(d.Liveness.Claims))
	m.set("device.modeled_ns_per_op", ratio(modeledDeviceNs(d), ops))
}

// modeledDeviceNs prices a window's device traffic with the paper's
// measured CXL latencies (memsim.LatencyCXL, §5.4) without injecting
// them: every SWcc line fetch is a CXL read, every write-back a CXL
// store, every explicit flush a flush, and every mCAS an spwr+sprd pair
// plus the NMP service time. Uncached HWcc loads and stores through the
// NMP have no counter and are not priced.
func modeledDeviceNs(d telemetry.Snapshot) float64 {
	l := memsim.LatencyCXL()
	c := d.Cache
	ns := float64(c.Fetches)*float64(l.CXLLoad) +
		float64(c.Writebacks)*float64(l.CXLStore) +
		float64(c.Flushes)*float64(l.FlushCost) +
		float64(d.NMP.SpWrs)*float64(l.MCASSpWr) +
		float64(d.NMP.SpRds)*float64(l.MCASSpRd+l.MCASService)
	return ns
}
