// Command cxlbench regenerates the paper's tables and figures (the
// counterpart of the artifact's script/run.sh + workload TOMLs).
//
// Usage:
//
//	cxlbench -list                           # registered experiments
//	cxlbench -exp all                        # everything, default scale
//	cxlbench -exp fig8 -workloads YCSB-A     # one figure, one workload
//	cxlbench -exp fig11 -threads 1,4,8,16    # latency sweep
//	cxlbench -exp table1                     # property matrix
//	cxlbench -exp fig9 -scale small -out results.ndjson
//	cxlbench -exp hotpath -json BENCH_hotpath.json -label after
//	cxlbench -exp hotpath -cpuprofile cpu.pprof -memprofile mem.pprof
//	cxlbench -trace out.json -exp fig9 -scale small
//	cxlbench -exp obs -scale small -obs-gate BENCH_obs.json
//	cxlbench -exp slo -json BENCH_slo.json -label baseline
//
// Run cxlbench -list for the experiment registry with descriptions.
// -exp all runs the paper's tables/figures and the offline gates; the
// online gates (livechaos, slo, slochaos) run only when named.
//
// -exp slo drives open-loop YCSB-shaped load through the KV service
// front end (internal/server) at fixed multiples of measured capacity,
// reporting goodput, p50/p99/p999, and shed/retry/breaker counts, with
// hard gates: no lost acks, goodput at 2x >= 80% of capacity, bounded
// p99, shedding engaged at the top rate. -exp slochaos reruns the 2x
// point while killing whole process groups (watchdog-only recovery)
// and additionally gates that the circuit breaker opened and nothing
// acked was lost.
//
// -exp livechaos runs the online chaos gate: continuous kvstore traffic
// with no quiesce while a seeded injector kills threads and whole
// processes at random crash points, resolves each crash with an
// adversarial persist-subset drop, and fires NMP fault bursts; the
// liveness watchdog is the only recovery path. The run reports ops/s,
// p99 latency, MTTR percentiles, availability, and three gates
// (invariants+ledger, lost acks, false takeovers). The fault schedule
// is recorded to -schedule-out as NDJSON and replayed bit-for-bit with
// -replay:
//
//	cxlbench -exp livechaos -seed 1 -duration 10s -schedule-out s.ndjson
//	cxlbench -exp livechaos -seed 1 -replay s.ndjson
//
// -exp persist runs the adversarial persistence sweep: every crash
// point crossed with enumerated/sampled persist subsets of the
// crash-time write window. A single failing cell replays with
//
//	cxlbench -exp persist -seed S -persist-point P -persist-mask 0xM
//
// (the exact line every violation report prints). -persist-mutate runs
// the sweep against the deliberately broken SkipOplogFlush allocator,
// which must fail — the mutation meta-test.
//
// -json appends a labeled run (rows sorted, stable field order) to a
// BENCH_*.json trajectory file, so per-PR before/after numbers are
// machine-recorded and diffable in review. -cpuprofile/-memprofile
// write standard pprof profiles of whatever experiments ran.
//
// -trace records every pod event of the run (alloc/free, SWcc flushes,
// mCAS retries, crashes, recoveries, lease activity) into a Chrome
// trace_event JSON loadable in chrome://tracing or ui.perfetto.dev.
// -metrics appends one unified telemetry snapshot per measured cxlalloc
// cell as NDJSON. -obs-gate fails the run if the obs experiment's
// disabled-tracing throughput regressed more than -obs-gate-pct against
// the -obs-gate-label run recorded in the given BENCH_obs.json (only
// meaningful on the machine that recorded the baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cxlalloc/internal/bench"
	"cxlalloc/internal/chaos"
	"cxlalloc/internal/telemetry"
)

// expDef is one registered experiment: its -exp name, a one-line
// description for -list, whether -exp all includes it, and its runner.
type expDef struct {
	name  string
	desc  string
	inAll bool
	run   func(sc bench.Scale, wl []string) ([]bench.Row, error)
}

// experiments is the registry behind -exp and -list. Order is the
// -exp all execution order (gated online runs are opt-in by name).
var experiments = []expDef{
	{"table1", "property matrix across allocators (Table 1)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunTable1(sc) }},
	{"table2", "YCSB workload suite at default scale (Table 2)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunTable2(sc, 0) }},
	{"fig7", "recovery time vs live objects (Figure 7)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunFig7(sc, 0, 0) }},
	{"fig8", "throughput by workload and allocator (Figure 8)", true, func(sc bench.Scale, wl []string) ([]bench.Row, error) { return bench.RunFig8(sc, wl) }},
	{"fig9", "multi-process scaling (Figure 9)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunFig9(sc) }},
	{"fig10", "PSS footprint under churn (Figure 10)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunFig10(sc, nil) }},
	{"fig11", "operation latency percentiles by thread count (Figure 11)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) {
		return bench.RunFig11(sc.Threads, max(sc.Ops/100, 200))
	}},
	{"fig12", "HWcc traffic accounting (Figure 12)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunFig12(sc) }},
	{"ablation-recovery", "recovery path ablation", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunAblationRecovery(sc) }},
	{"ablation-owner-cache", "owner-cache ablation", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunAblationOwnerCache(sc) }},
	{"ablation-hwcc", "HWcc accounting ablation", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunAblationHWccAccounting(sc) }},
	{"ablation-disown", "disown batching ablation", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunAblationDisown(sc, 0) }},
	{"chaos", "crash-point sweep gate (thread/process kills, NMP faults)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return runChaos(sc) }},
	{"persist", "adversarial persistence gate (crash point x persist subset)", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return runPersist(sc) }},
	{"mttr", "watchdog repair-time distribution", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunMTTR(sc) }},
	{"hotpath", "allocation hot-path microbenchmark", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunHotpath(sc) }},
	{"obs", "telemetry overhead on/off comparison", true, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return bench.RunObs(sc) }},
	{"livechaos", "online chaos gate: live traffic, fault injection, watchdog-only recovery, lost-ack oracle", false, func(sc bench.Scale, _ []string) ([]bench.Row, error) { return runLiveChaos(sc) }},
	{"slo", "open-loop overload sweep through the KV service front end (goodput, p99, shed/retry gates)", false, runSLO},
	{"slochaos", "service gate under process-group kills at 2x load (breaker + lost-ack gates)", false, runSLOChaos},
	{"fabricchaos", "multi-pod fabric gate: pod kills, fences, interrupted migrations under live traffic (failover + lost-ack + replay gates)", false, runFabricChaos},
}

func findExp(name string) *expDef {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run (comma-separated; see -list)")
		list        = flag.Bool("list", false, "print the registered experiments and exit")
		scaleName   = flag.String("scale", "default", "small | default")
		out         = flag.String("out", "", "append NDJSON results to this file")
		jsonOut     = flag.String("json", "", "append a labeled, stably sorted run to this BENCH_*.json file")
		label       = flag.String("label", "current", "run label recorded in -json output (e.g. before, after)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
		workloads   = flag.String("workloads", "", "fig8: comma-separated workload filter")
		threads     = flag.String("threads", "", "override thread counts, e.g. 1,2,4,8")
		procs       = flag.Int("procs", 0, "override process count")
		ops         = flag.Int("ops", 0, "override total operations per trial")
		trials      = flag.Int("trials", 0, "override trial count")
		arena       = flag.Int("arena", 0, "override per-allocator backing memory (bytes)")
		seed        = flag.Uint64("seed", 0, "override workload RNG seed (chaos, persist; recorded in report rows)")
		perPoint    = flag.String("persist-point", "", "persist: restrict the sweep to one crash point (required for -persist-mask)")
		perMask     = flag.String("persist-mask", "", "persist: replay a single cell with this hex persist mask (e.g. 0x7ff) instead of sweeping")
		perCap      = flag.Int("persist-cap", 0, "persist: exhaustive subset enumeration cap (windows wider than this are sampled)")
		perSamples  = flag.Int("persist-samples", 0, "persist: sampled cells per capped window")
		perMutate   = flag.Bool("persist-mutate", false, "persist: run against the SkipOplogFlush mutant (sweep must fail; meta-test)")
		perMutateF  = flag.Bool("persist-mutate-fence", false, "persist: run against the SkipCommitFence mutant — magazine pop without its commit fence (sweep must fail; meta-test)")
		traceOut    = flag.String("trace", "", "record a Chrome trace_event JSON of the run to this file (open in chrome://tracing or ui.perfetto.dev)")
		traceCap    = flag.Int("trace-cap", 1<<20, "per-thread trace ring capacity (events) for -trace; rounds up to a power of two")
		metricsOut  = flag.String("metrics", "", "append unified metrics snapshots (NDJSON, one per measured cxlalloc cell) to this file")
		duration    = flag.Duration("duration", 0, "livechaos/fabricchaos: traffic window (default 10s)")
		faultRate   = flag.Float64("fault-rate", 0, "livechaos/fabricchaos: mean fault injections per second (defaults 1.2 / 0.8)")
		replayPath  = flag.String("replay", "", "livechaos/fabricchaos: replay this NDJSON fault schedule instead of recording one")
		schedOut    = flag.String("schedule-out", "", "livechaos/fabricchaos: write the run's fault schedule to this NDJSON file")
		pods        = flag.Int("pods", 0, "fabricchaos: pod count (default 3)")
		fabShards   = flag.Int("fabric-shards", 0, "fabricchaos: keyspace shard count (default 16)")
		fabMTTR     = flag.Duration("fabric-mttr", 0, "fabricchaos: failover MTTR gate bound (default 10s)")
		fabGrace    = flag.Duration("fabric-grace", 0, "fabricchaos: pod dark-detection grace (default 250ms; raise on heavily shared machines to avoid benign false takeovers)")
		leaseWall   = flag.Duration("lease", 0, "livechaos/slochaos: target lease wall-clock expiry (default 400ms; raise on heavily shared machines to avoid benign claim storms)")
		sloWindow   = flag.Duration("slo-window", 0, "slo: measured window per rate point (default 1.5s)")
		sloDead     = flag.Duration("slo-deadline", 0, "slo: per-request deadline budget (default 25ms)")
		sloRates    = flag.String("slo-rates", "", "slo: offered-load multipliers of measured capacity (default 0.5,1,2,4)")
		sloClients  = flag.Int("slo-clients", 0, "slo: issuer connection count (default 16)")
		sloQueue    = flag.Int("slo-queue", 0, "slo: per-group admission queue bound (default 64)")
		strictTr    = flag.Bool("strict-trace", false, "fail the run if the -trace ring dropped any events")
		obsGate     = flag.String("obs-gate", "", "fail if obs disabled-tracing throughput regressed vs the baseline run in this BENCH_obs.json")
		obsGatePct  = flag.Float64("obs-gate-pct", 5, "obs gate tolerance in percent")
		obsGateRef  = flag.String("obs-gate-label", "baseline", "obs gate baseline run label")
		hotGate     = flag.String("hotpath-gate", "", "gate swcc threadtest-small throughput against the baseline run in this BENCH_hotpath.json (warn/fail tolerances below)")
		hotGateRef  = flag.String("hotpath-gate-label", "after", "hotpath gate baseline run label")
		hotGateWarn = flag.Float64("hotpath-gate-warn-pct", 15, "hotpath gate: warn when regression exceeds this percent")
		hotGateFail = flag.Float64("hotpath-gate-fail-pct", 30, "hotpath gate: fail when regression exceeds this percent")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			scope := "  "
			if !e.inAll {
				scope = "* " // opt-in: not part of -exp all
			}
			fmt.Printf("%s%-22s %s\n", scope, e.name, e.desc)
		}
		fmt.Println("\nexperiments marked * run only when named (not part of -exp all)")
		return
	}

	liveFlags = liveOpts{
		duration:  *duration,
		faultRate: *faultRate,
		replay:    *replayPath,
		schedOut:  *schedOut,
		leaseWall: *leaseWall,
	}
	persistFlags = persistOpts{
		point:       *perPoint,
		mask:        *perMask,
		cap:         *perCap,
		samples:     *perSamples,
		mutate:      *perMutate,
		mutateFence: *perMutateF,
	}
	sloFlags = sloOpts{
		window:   *sloWindow,
		deadline: *sloDead,
		rates:    *sloRates,
		clients:  *sloClients,
		queueCap: *sloQueue,
	}
	fabricFlags = fabricOpts{
		pods:      *pods,
		shards:    *fabShards,
		mttrBound: *fabMTTR,
		darkGrace: *fabGrace,
		duration:  *duration,
		faultRate: *faultRate,
		replay:    *replayPath,
		schedOut:  *schedOut,
	}

	exps := strings.Split(*exp, ",")
	if *exp == "all" {
		exps = exps[:0]
		for _, e := range experiments {
			if e.inAll {
				exps = append(exps, e.name)
			}
		}
	}
	for i := range exps {
		exps[i] = strings.TrimSpace(exps[i])
	}
	if err := validateFlags(exps); err != nil {
		fmt.Fprintln(os.Stderr, "cxlbench:", err)
		fmt.Fprintln(os.Stderr, "run cxlbench -list for experiments, cxlbench -h for flags")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		atFlush(func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		})
	}

	sc := bench.DefaultScale()
	if *scaleName == "small" {
		sc = bench.SmallScale()
	}
	if *threads != "" {
		sc.Threads = nil
		for _, t := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(t))
			if err != nil {
				fatal(err)
			}
			sc.Threads = append(sc.Threads, n)
		}
	}
	if *procs > 0 {
		sc.Procs = *procs
	}
	if *ops > 0 {
		sc.Ops = *ops
	}
	if *trials > 0 {
		sc.Trials = *trials
	}
	if *arena > 0 {
		sc.ArenaBytes = *arena
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	var wl []string
	if *workloads != "" {
		wl = strings.Split(*workloads, ",")
	}

	// -trace installs the global tracer for the whole invocation. Rings
	// must cover the widest thread sweep (chaos pods use 4 slots). A
	// requested trace is a request for the full event stream: hot-kind
	// sampling (the leave-it-on default that the obs experiment measures)
	// is switched to full fidelity, and the ring default is sized so a
	// hotpath-scale run fits without drops (-strict-trace stays a real
	// gate; tune with -trace-cap).
	if *traceOut != "" {
		maxT := 4
		for _, t := range sc.Threads {
			if t > maxT {
				maxT = t
			}
		}
		telemetry.SetHotSamplePeriod(1)
		tracer := telemetry.Start(maxT, *traceCap)
		atFlush(func() { writeTrace(tracer, *traceOut, *strictTr) })
	}
	if *metricsOut != "" {
		var metrics []telemetry.MetricsRecord
		bench.MetricsSink = func(dims map[string]string, s telemetry.Snapshot) {
			metrics = append(metrics, telemetry.MetricsRecord{Label: *label, Dims: dims, Values: s})
		}
		atFlush(func() { writeMetrics(metrics, *metricsOut) })
	}

	var all []bench.Row
	for _, e := range exps {
		rows, err := findExp(e).run(sc, wl)
		if err != nil {
			fatal(err)
		}
		// Every report row carries the run's workload seed, so any cell
		// in any output file is reproducible from its own metadata.
		for i := range rows {
			if rows[i].Extra == nil {
				rows[i].Extra = map[string]string{}
			}
			if _, ok := rows[i].Extra["seed"]; !ok {
				rows[i].Extra["seed"] = fmt.Sprint(sc.Seed)
			}
		}
		all = append(all, rows...)
		print(e, rows)
	}

	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteNDJSON(f, all); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(all), *out)
	}
	if *jsonOut != "" {
		if err := bench.AppendBenchJSON(*jsonOut, *label, all); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d rows as run %q in %s\n", len(all), *label, *jsonOut)
	}
	flush()
	if *obsGate != "" {
		if err := bench.CheckObsGate(*obsGate, *obsGateRef, all, *obsGatePct); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "obs gate passed (tolerance %.0f%% vs %q in %s)\n",
			*obsGatePct, *obsGateRef, *obsGate)
	}
	if *hotGate != "" {
		warns, err := bench.CheckHotpathGate(*hotGate, *hotGateRef, all, *hotGateWarn, *hotGateFail)
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "WARNING: hotpath gate: %s\n", w)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hotpath gate passed (warn %.0f%% / fail %.0f%% vs %q in %s, %d warnings)\n",
			*hotGateWarn, *hotGateFail, *hotGateRef, *hotGate, len(warns))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// validateFlags rejects bad experiment names and inconsistent flag
// combinations before any experiment runs, so a long invocation cannot
// fail halfway through on a typo that was checkable up front.
func validateFlags(exps []string) error {
	if len(exps) == 0 {
		return fmt.Errorf("-exp names no experiments")
	}
	named := map[string]bool{}
	for _, e := range exps {
		if findExp(e) == nil {
			return fmt.Errorf("unknown experiment %q", e)
		}
		named[e] = true
	}
	if persistFlags.mutate && persistFlags.mutateFence {
		return fmt.Errorf("-persist-mutate and -persist-mutate-fence are separate meta-tests; run one at a time")
	}
	if persistFlags.mask != "" {
		if persistFlags.point == "" {
			return fmt.Errorf("-persist-mask requires -persist-point (a repro line names both)")
		}
		if _, err := strconv.ParseUint(persistFlags.mask, 0, 64); err != nil {
			return fmt.Errorf("bad -persist-mask %q: %v (want hex like 0x7ff)", persistFlags.mask, err)
		}
		if !named["persist"] {
			return fmt.Errorf("-persist-mask is only meaningful with -exp persist")
		}
	}
	if liveFlags.replay != "" {
		if !named["livechaos"] && !named["fabricchaos"] {
			return fmt.Errorf("-replay is only meaningful with -exp livechaos or -exp fabricchaos")
		}
		if named["livechaos"] && named["fabricchaos"] {
			return fmt.Errorf("-replay names one schedule; run livechaos and fabricchaos replays separately")
		}
		if _, err := os.Stat(liveFlags.replay); err != nil {
			return fmt.Errorf("-replay schedule %s: %v", liveFlags.replay, err)
		}
		if liveFlags.schedOut == liveFlags.replay {
			return fmt.Errorf("-schedule-out and -replay name the same file %s", liveFlags.replay)
		}
	}
	if (fabricFlags.pods != 0 || fabricFlags.shards != 0 || fabricFlags.mttrBound != 0 || fabricFlags.darkGrace != 0) && !named["fabricchaos"] {
		return fmt.Errorf("-pods/-fabric-shards/-fabric-mttr/-fabric-grace are only meaningful with -exp fabricchaos")
	}
	if _, err := parseRates(sloFlags.rates); err != nil {
		return err
	}
	return nil
}

func print(e string, rows []bench.Row) {
	switch e {
	case "table1":
		fmt.Print(bench.FormatTable1(rows))
	case "table2":
		fmt.Print(bench.FormatTable2(rows))
	case "fig7":
		fmt.Print(bench.FormatFig7(rows))
	case "fig11":
		fmt.Print(bench.FormatFig11(rows))
	default:
		bench.PrintTable(os.Stdout, rows)
	}
}

// runChaos runs the robustness gate: every crash point the workload
// discovers is swept under thread-crash and process-crash, plus a
// seeded NMP fault run that must complete through the sw_flush_cas
// fallback. The pod runs with AutoRecover: the harness makes no
// explicit recovery calls — the watchdog alone must converge every
// crash. A failed gate is a hard error (non-zero exit).
func runChaos(sc bench.Scale) ([]bench.Row, error) {
	cfg := chaos.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.Ops = min(max(sc.Ops/100, 300), 2000)
	cfg.AutoRecover = true
	rep, err := chaos.Sweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(chaos.FormatReport(rep))

	var rows []bench.Row
	for _, mode := range []chaos.Mode{chaos.ModeThreadCrash, chaos.ModeProcessCrash} {
		fired := 0
		total := 0
		for _, r := range rep.Runs {
			if r.Mode != mode {
				continue
			}
			total++
			if r.Fired {
				fired++
			}
		}
		rows = append(rows, bench.Row{
			Experiment: "chaos",
			Workload:   "sweep/" + string(mode),
			Allocator:  "cxlalloc",
			Threads:    cfg.Threads,
			Procs:      cfg.Procs,
			Ops:        total,
			Extra: map[string]string{
				"points": fmt.Sprint(len(rep.Points)),
				"fired":  fmt.Sprint(fired),
				"seed":   fmt.Sprint(cfg.Seed),
			},
		})
	}
	rows = append(rows, bench.Row{
		Experiment: "chaos",
		Workload:   "nmp-faults",
		Allocator:  "cxlalloc-mcas",
		Threads:    cfg.Threads,
		Procs:      cfg.Procs,
		Extra: map[string]string{
			"faults":    fmt.Sprint(rep.NMP.Faults),
			"retries":   fmt.Sprint(rep.NMP.Retries),
			"fallbacks": fmt.Sprint(rep.NMP.Fallbacks),
			"completed": fmt.Sprint(rep.NMP.Completed),
			"seed":      fmt.Sprint(cfg.Seed),
		},
	})
	if !rep.Ok() {
		return rows, fmt.Errorf("chaos gate failed: %s", rep.Summary())
	}
	return rows, nil
}

// liveOpts carries the livechaos flags into runLiveChaos.
type liveOpts struct {
	duration  time.Duration
	faultRate float64
	replay    string
	schedOut  string
	leaseWall time.Duration
}

var liveFlags liveOpts

// runLiveChaos runs the online chaos gate: continuous traffic, a seeded
// concurrent fault injector, watchdog-only recovery, and the lost-ack
// oracle. Any gate failure (invariant/ledger violation, a lost acked
// write, a false takeover) is a hard error (non-zero exit).
func runLiveChaos(sc bench.Scale) ([]bench.Row, error) {
	cfg := chaos.DefaultLiveConfig()
	cfg.Seed = sc.Seed
	if liveFlags.duration > 0 {
		cfg.Duration = liveFlags.duration
	}
	if liveFlags.faultRate > 0 {
		cfg.FaultRate = liveFlags.faultRate
	}
	if liveFlags.leaseWall > 0 {
		cfg.LeaseWall = liveFlags.leaseWall
	}
	if liveFlags.replay != "" {
		specs, err := chaos.LoadSchedule(liveFlags.replay)
		if err != nil {
			return nil, fmt.Errorf("livechaos: %v", err)
		}
		if len(specs) == 0 {
			return nil, fmt.Errorf("livechaos: %s holds no fault specs", liveFlags.replay)
		}
		cfg.Replay = specs
	}

	rep, err := chaos.RunLive(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(chaos.FormatLiveReport(rep))

	if liveFlags.schedOut != "" {
		if err := chaos.SaveSchedule(liveFlags.schedOut, rep.Schedule); err != nil {
			return nil, fmt.Errorf("livechaos: writing schedule: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d fault specs to %s\n", len(rep.Schedule), liveFlags.schedOut)
	}

	row := bench.Row{
		Experiment: "livechaos",
		Workload:   "online",
		Allocator:  "cxlalloc-mcas",
		Threads:    rep.Threads,
		Procs:      rep.Procs,
		Ops:        int(rep.Ops),
		ElapsedSec: rep.Elapsed.Seconds(),
		Throughput: rep.Throughput,
		Extra: map[string]string{
			"seed":            fmt.Sprint(rep.Seed),
			"latency_p50":     rep.LatencyP50.String(),
			"latency_p99":     rep.LatencyP99.String(),
			"acked":           fmt.Sprint(rep.Acked),
			"crashes":         fmt.Sprint(rep.Crashes),
			"thread_kills":    fmt.Sprint(rep.ThreadKills),
			"proc_kills":      fmt.Sprint(rep.ProcKills),
			"nmp_bursts":      fmt.Sprint(rep.NMPBursts),
			"nmp_faults":      fmt.Sprint(rep.NMPFaults),
			"crash_discards":  fmt.Sprint(rep.CrashDiscards),
			"lines_dropped":   fmt.Sprint(rep.LinesDropped),
			"repairs":         fmt.Sprint(rep.Repairs),
			"mttr_p50":        rep.MTTRP50.Round(time.Millisecond).String(),
			"mttr_p99":        rep.MTTRP99.Round(time.Millisecond).String(),
			"mttr_max":        rep.MTTRMax.Round(time.Millisecond).String(),
			"availability":    fmt.Sprintf("%.4f", rep.Availability),
			"violations":      fmt.Sprint(len(rep.Violations)),
			"lost_acks":       fmt.Sprint(len(rep.LostAcks)),
			"false_takeovers": fmt.Sprint(rep.FalseTakeovers),
			"replayed":        fmt.Sprint(rep.Replayed),
			"replay_ok":       fmt.Sprint(rep.ReplayOK),
		},
	}
	if !rep.Ok() {
		return []bench.Row{row}, fmt.Errorf("livechaos gate failed: %d invariant violations, %d lost acks, %d false takeovers",
			len(rep.Violations), len(rep.LostAcks), rep.FalseTakeovers)
	}
	if rep.Replayed && !rep.ReplayOK {
		return []bench.Row{row}, fmt.Errorf("livechaos replay gate failed: emitted schedule differs from %s", liveFlags.replay)
	}
	return []bench.Row{row}, nil
}

// persistOpts carries the -persist-* flags into runPersist.
type persistOpts struct {
	point       string
	mask        string
	cap         int
	samples     int
	mutate      bool
	mutateFence bool
}

var persistFlags persistOpts

// runPersist runs the adversarial persistence gate: the crash-point ×
// persist-subset sweep under the SWcc crash-eviction model. With
// -persist-point and -persist-mask it instead replays exactly one
// cell — the form every violation's repro line takes — and fails with
// a non-zero exit if that cell still violates an invariant. A failed
// sweep is a hard error unless -persist-mutate is set, in which case
// the sweep runs against the SkipOplogFlush mutant and must fail (and
// the failure must minimize to a deterministic counterexample).
func runPersist(sc bench.Scale) ([]bench.Row, error) {
	// Deliberately NOT scaled by -scale/-ops: a violation's repro line
	// records only seed+point+mask, so the workload behind a cell must
	// be a pure function of the seed. Sweep cost is tuned with
	// -persist-cap / -persist-samples instead.
	cfg := chaos.DefaultPersistConfig()
	cfg.Seed = sc.Seed
	if persistFlags.cap > 0 {
		cfg.SubsetCap = persistFlags.cap
	}
	if persistFlags.samples > 0 {
		cfg.Samples = persistFlags.samples
	}
	cfg.SkipOplogFlush = persistFlags.mutate
	cfg.SkipCommitFence = persistFlags.mutateFence
	if persistFlags.point != "" {
		cfg.Points = []string{persistFlags.point}
	}
	mutated := cfg.SkipOplogFlush || cfg.SkipCommitFence

	if persistFlags.mask != "" {
		if persistFlags.point == "" {
			return nil, fmt.Errorf("-persist-mask requires -persist-point")
		}
		mask, err := strconv.ParseUint(persistFlags.mask, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -persist-mask %q: %v", persistFlags.mask, err)
		}
		win, rerr := chaos.ReplayPersistCell(cfg, persistFlags.point, mask)
		if rerr != nil {
			return nil, fmt.Errorf("persist cell %s mask=%#x (window %d lines): %v",
				persistFlags.point, mask, win, rerr)
		}
		fmt.Printf("persist cell ok: point=%s mask=%#x window=%d lines seed=%d mutate=%v\n",
			persistFlags.point, mask, win, cfg.Seed, mutated)
		return []bench.Row{{
			Experiment: "persist",
			Workload:   "replay/" + persistFlags.point,
			Allocator:  "cxlalloc",
			Threads:    cfg.Threads,
			Procs:      cfg.Procs,
			Extra: map[string]string{
				"mask":   fmt.Sprintf("%#x", mask),
				"window": fmt.Sprint(win),
				"seed":   fmt.Sprint(cfg.Seed),
				"mutate": fmt.Sprint(mutated),
			},
		}}, nil
	}

	rep, err := chaos.PersistSweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(chaos.FormatPersistReport(rep))
	rows := []bench.Row{{
		Experiment: "persist",
		Workload:   "sweep",
		Allocator:  "cxlalloc",
		Threads:    cfg.Threads,
		Procs:      cfg.Procs,
		Ops:        cfg.Ops,
		Extra: map[string]string{
			"points":     fmt.Sprint(len(rep.Points)),
			"cells":      fmt.Sprint(rep.CellsRun),
			"dropped":    fmt.Sprint(rep.LinesDropped),
			"capped":     fmt.Sprint(rep.Capped),
			"violations": fmt.Sprint(len(rep.Violations)),
			"seed":       fmt.Sprint(cfg.Seed),
			"mutate":     fmt.Sprint(mutated),
		},
	}}
	if mutated {
		// Mutation meta-test: the broken allocator MUST be caught,
		// and the catch must carry a minimized, replayable repro.
		if len(rep.Violations) == 0 {
			which := "SkipOplogFlush"
			if cfg.SkipCommitFence {
				which = "SkipCommitFence"
			}
			return rows, fmt.Errorf("persist mutation gate failed: %s sweep found no violation", which)
		}
		v := rep.Violations[0]
		if len(v.MinDrop) == 0 || v.Repro == "" {
			return rows, fmt.Errorf("persist mutation gate failed: violation not minimized (%+v)", v)
		}
		fmt.Printf("mutation caught: %s\n", v.Repro)
		return rows, nil
	}
	if !rep.Ok() {
		return rows, fmt.Errorf("persist gate failed: %s", rep.Summary())
	}
	return rows, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// flushers finish the run's outputs: stop the CPU profile, write the
// -trace and -metrics files. flush runs them last-registered first,
// after the experiments on the normal path and from fatal on a failing
// one, so a run that fails a gate still leaves its data behind.
var flushers []func()

func atFlush(f func()) { flushers = append(flushers, f) }

// flush runs and forgets each flusher; one that fails calls fatal,
// which flushes the rest before exiting.
func flush() {
	for len(flushers) > 0 {
		f := flushers[len(flushers)-1]
		flushers = flushers[:len(flushers)-1]
		f()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxlbench:", err)
	flush()
	os.Exit(1)
}

// writeTrace stops tracing and writes what the ring holds as Chrome
// trace JSON.
func writeTrace(tracer *telemetry.Tracer, path string, strict bool) {
	telemetry.Stop()
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := telemetry.WriteChromeTrace(f, tracer); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote trace (%d events, %d dropped) to %s\n",
		tracer.Recorded(), tracer.Dropped(), path)
	if d := tracer.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: trace ring dropped %d events; the trace has gaps (grow the ring or shrink the run)\n", d)
		if strict {
			fatal(fmt.Errorf("-strict-trace: trace ring dropped %d events", d))
		}
	}
}

// writeMetrics appends the collected snapshots as NDJSON.
func writeMetrics(metrics []telemetry.MetricsRecord, path string) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal(err)
	}
	if err := telemetry.WriteMetricsNDJSON(f, metrics); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d metrics snapshots to %s\n", len(metrics), path)
}
