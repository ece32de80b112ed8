package main

import (
	"time"

	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/telemetry"
)

// kvWindow is what one window on one rung observed.
type kvWindow struct {
	tallies   []*kvTally
	spans     *spanSet
	delta     telemetry.Snapshot
	kvDelta   kvstore.Stats
	kvEnd     kvstore.Stats
	fabRej    uint64 // fabric router rejects in the window
	podDarks  uint64
	footprint uint64
	liveBytes int64
	problems  []string
}

// merged folds every driving goroutine's tally together.
func (w *kvWindow) merged() (p parts, retries uint64) {
	for _, t := range w.tallies {
		p.merge(&t.p)
		retries += t.retries
	}
	return p, retries
}

func kvInputsFor(o runOpts) (*kvInputs, int) {
	if o.workload == "kv-update" {
		return genKVUpdate(o.seed, kvLanes, kvOpsPerLane), kvLanes
	}
	return genKVReadLarge(o.seed, readLargeRate, o.window), openSlots
}

// measure runs one window on s from freshly preloaded expected state,
// then audits the store against that state and checks the run stayed
// fault-free. s is stopped on return.
func measure(in *kvInputs, s *kvSystem, o runOpts, dur time.Duration, traced bool) kvWindow {
	defer s.stop()
	d := newKVLoad(in)
	var w kvWindow
	var rej0 uint64
	if s.fab != nil {
		rej0 = s.fab.Stats().RouterRejects
	}
	snap0, kv0 := s.snapshot(), s.storeStats()
	w.tallies = d.window(s, dur, traced, o.seed)
	s.publish()
	w.delta = s.snapshot().Delta(snap0)
	w.kvEnd = s.storeStats()
	w.kvDelta = kvDelta(w.kvEnd, kv0)
	if s.fab != nil {
		fs := s.fab.Stats()
		w.fabRej, w.podDarks = fs.RouterRejects-rej0, fs.PodDarks
	}
	if traced {
		var recs []*recorder
		for _, t := range w.tallies {
			recs = append(recs, t.rec)
		}
		w.spans = mergeRecorders(recs...)
	}
	var err error
	if w.footprint, err = s.footprint(); err != nil {
		w.problems = append(w.problems, err.Error())
	}
	w.liveBytes = d.liveBytes()
	if o.plant == plantWrongValue {
		plantWrong(in, d, s)
	}
	for _, t := range w.tallies {
		if t.problem != "" {
			w.problems = append(w.problems, o.workload+": "+t.problem)
		}
	}
	w.problems = append(w.problems, d.audit(s)...)
	w.problems = append(w.problems, s.faultFree(o.workload)...)
	return w
}

// plantWrong overwrites the first key expected present with bytes that
// differ from its expected value in one position.
func plantWrong(in *kvInputs, d *kvLoad, s *kvSystem) {
	for k := range in.keys {
		want := int8(0)
		if d.closed {
			want = d.state[k]
		}
		if want < 0 {
			continue
		}
		bad := append([]byte(nil), in.vals[k][want]...)
		bad[len(bad)/2] ^= 0xff
		// A plant that fails to land shows up as the test's missed catch.
		_ = s.onOwner(in.keys[k], func(st *kvstore.Store, tid int) error { return st.Put(tid, in.keys[k], bad) })
		return
	}
}

func kvDelta(a, b kvstore.Stats) kvstore.Stats {
	return kvstore.Stats{
		Inserts: a.Inserts - b.Inserts, Replaces: a.Replaces - b.Replaces, Deletes: a.Deletes - b.Deletes,
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Reclaimed: a.Reclaimed - b.Reclaimed,
	}
}

func runKV(o runOpts) (metrics, int64, int64, []string) {
	in, nSlots := kvInputsFor(o)
	var sys *kvSystem
	setup, err := timeSetup(func() error {
		var err error
		sys, err = newKVSystem(in, rungFabric, nSlots)
		return err
	}, func() { sys.stop() })
	if err != nil {
		return nil, 0, 0, []string{err.Error()}
	}
	m := metrics{}
	m.set("setup_s", setup)
	if !o.trace {
		w := measure(in, sys, o, o.window, false)
		p, _ := w.merged()
		attempted, ok := p.totals()
		// Throughput counts correctly answered requests.
		p.report(m, p.ok, o.window/subWindows)
		m.set("ok_frac", ratio(float64(ok), float64(attempted)))
		m.set("footprint_per_live_byte", ratio(float64(w.footprint), float64(w.liveBytes)))
		return m, attempted, attempted - ok, w.problems
	}

	// Traced: an untraced reference window on the fabric, then the same
	// op stream through each rung on a freshly set-up system.
	part := o.window / 2
	ref := measure(in, sys, o, part, false)
	problems := ref.problems
	refP, _ := ref.merged()
	attempted, ok := refP.totals()
	failed := attempted - ok
	var rungs [3]kvWindow
	for r := rungStore; r <= rungFabric; r++ {
		s, err := newKVSystem(in, r, nSlots)
		if err != nil {
			return nil, attempted, failed, append(problems, err.Error())
		}
		rungs[r] = measure(in, s, o, part, true)
		p, _ := rungs[r].merged()
		a, ok := p.totals()
		attempted += a
		failed += a - ok
		problems = append(problems, rungs[r].problems...)
	}
	kvLayerMetrics(m, &ref, &rungs, float64(in.genNs)/float64(in.genOps))
	return m, attempted, failed, problems
}

// kvLayerMetrics attributes the kv rungs' time and work to layers.
func kvLayerMetrics(m metrics, ref *kvWindow, rungs *[3]kvWindow, genNsPerOp float64) {
	st, sv, fb := rungs[rungStore].spans, rungs[rungServer].spans, rungs[rungFabric].spans
	fab := &rungs[rungFabric]
	fabP, retries := fab.merged()
	fabAttempted, _ := fabP.totals()
	ops := float64(fabAttempted)
	us := func(ns float64) float64 { return ns / 1e3 }

	fabP.tails(m)

	m.set("kvstore.rung_us_p50", us(st.quantileNs(stRequest, 0.5)))
	m.set("server.rung_us_p50", us(sv.quantileNs(stRequest, 0.5)))
	m.set("fabric.rung_us_p50", us(fb.quantileNs(stRequest, 0.5)))
	m.set("server.self_us", us(sv.meanNs(stRequest)-st.meanNs(stRequest)))
	m.set("fabric.self_us", us(fb.meanNs(stRequest)-sv.meanNs(stRequest)))

	m.set("server.queue_wait_us_p50", us(sv.quantileNs(stQueue, 0.5)))
	m.set("server.queue_wait_us_p99", us(sv.quantileNs(stQueue, 0.99)))
	m.set("server.exec_us_p50", us(sv.quantileNs(stExec, 0.5)))
	srv := fab.delta.Server
	shed := srv.ShedQueueFull + srv.ShedCoDel + srv.ShedDeadline + srv.ShedWrite + srv.ShedPodFull + srv.ShedBreaker + srv.ShedShard
	m.set("server.shed_frac", ratio(float64(shed), float64(srv.Submitted)))
	m.set("server.retries_per_op", ratio(float64(retries), ops))

	m.set("fabric.submit_ns", fb.meanNs(stSubmit))
	m.set("fabric.router_rejects_frac", ratio(float64(fab.fabRej), float64(srv.Submitted+fab.fabRej)))
	m.set("fabric.pod_darks", float64(fab.podDarks))

	m.set("kvstore.get_us", us(st.meanNs(stGet)))
	m.set("kvstore.put_us", us(st.meanNs(stPut)))
	m.set("kvstore.delete_us", us(st.meanNs(stDelete)))
	kd := fab.kvDelta
	m.set("kvstore.hit_rate", ratio(float64(kd.Hits), float64(kd.Hits+kd.Misses)))
	storeNs := float64(st.sum[stGet] + st.sum[stPut] + st.sum[stDelete])
	m.set("kvstore.core_share", ratio(float64(st.sum[stAlloc]+st.sum[stFree]), storeNs))
	m.set("epoch.backlog", float64(fab.kvEnd.Replaces+fab.kvEnd.Deletes)-float64(fab.kvEnd.Reclaimed))

	m.set("core.alloc_ns", st.meanNs(stAlloc))
	m.set("core.free_ns", st.meanNs(stFree))
	m.set("core.footprint_mb", float64(fab.footprint)/(1<<20))
	counterMetrics(m, fab.delta, ops)
	m.set("host.ns_per_op", fb.meanNs(stRequest))
	m.set("liveness.run_ns", ratio(float64(st.sum[stRun])-storeNs, float64(st.n[stRun])))

	m.set("loadgen.ns_per_op", fb.meanNs(stCheck)+genNsPerOp)
	m.set("loadgen.lag_p99_us", us(fb.quantileNs(stLag, 0.99)))

	// Tracing overhead: mean request latency of the traced fabric rung
	// over the untraced reference window, both timed the way the
	// end-to-end metrics are.
	refP, _ := ref.merged()
	m.set("trace.overhead_frac", ratio(fabP.meanLatNs(), refP.meanLatNs())-1)
}
