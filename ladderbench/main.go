// Command ladderbench is the repository's benchmark: one op mix per
// workload, measured end to end and attributed layer by layer, from the
// allocator core up to the multi-pod fabric. See README.md.
//
//	bash ladderbench/run.sh --workload kv-update --seed 1 --seconds 15 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cxlalloc"
)

// benchWorkloads are the workloads BENCHMARK.json lists. It leaves out
// alloc-churn, whose CPU-bound rate follows the load on the shared host
// more than the program (README.md); alloc-churn runs when named, and
// with --workload all.
var (
	benchWorkloads = []string{"kv-update", "kv-read-large"}
	workloads      = append([]string{"alloc-churn"}, benchWorkloads...)
)

// setupReps is how many times a run builds its system; setup_s is the
// median build time and the last build is the one measured.
const setupReps = 5

// plant deliberately breaks a run so tests can prove the checker
// catches it.
type plant int

const (
	plantNone       plant = iota
	plantLeak             // alloc-churn: one block is never freed
	plantWrongValue       // kv: one stored value is overwritten behind the lanes' backs
)

type runOpts struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	plant    plant
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !known(n) {
			fmt.Fprintf(os.Stderr, "ladderbench: unknown workload %q (want one of %s, or all)\n", n, strings.Join(workloads, ", "))
			os.Exit(2)
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ladderbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	exit := 0
	for _, n := range names {
		o := runOpts{workload: n, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
		r, problems := run(o)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "ladderbench: FAIL:", p)
		}
		if err := writeResult(os.Stdout, n, r); err != nil {
			fmt.Fprintln(os.Stderr, "ladderbench:", err)
			exit = 1
		}
		if !r.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

func known(n string) bool {
	for _, w := range workloads {
		if w == n {
			return true
		}
	}
	return false
}

// run executes one workload and assembles its result. Any correctness
// or fault-free problem makes the result incorrect.
func run(o runOpts) (result, []string) {
	var (
		m                 metrics
		attempted, failed int64
		problems          []string
	)
	if o.workload == "alloc-churn" {
		m, attempted, failed, problems = runChurn(o)
	} else {
		m, attempted, failed, problems = runKV(o)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var missing []string
	r := result{Attempted: attempted, Failed: failed}
	r.Metrics, missing = report(m, defs)
	if len(problems) == 0 {
		// Missing metrics only matter for a run that got to measure.
		problems = missing
	}
	if r.Attempted < 1 {
		problems = append(problems, "no operation was attempted")
	}
	r.Correct = len(problems) == 0
	return r, problems
}

// timeSetup builds the system under test setupReps times and returns
// the median build time in seconds. Every build but the last is
// released with drop, so the last one is left for measuring. The
// collector is off while building, so every build starts on fresh
// memory and none pays for another's garbage; it runs once afterwards,
// before anything is measured.
func timeSetup(build func() error, drop func()) (float64, error) {
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GC()
	}()
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		if i < setupReps-1 && drop != nil {
			drop()
		}
	}
	sort.Float64s(ts)
	return ts[len(ts)/2], nil
}

// faultFreePod reports any watchdog claim, repair, or crash on pod: a
// run is only valid when nothing failed or recovered during it.
func faultFreePod(pod *cxlalloc.Pod, name string) []string {
	s := pod.Snapshot()
	if s.Liveness.Claims != 0 || s.Liveness.Repairs != 0 || s.Chaos.CrashesMarked != 0 {
		return []string{fmt.Sprintf("%s: pod not fault-free: %d liveness claims, %d repairs, %d crashes",
			name, s.Liveness.Claims, s.Liveness.Repairs, s.Chaos.CrashesMarked)}
	}
	return nil
}
