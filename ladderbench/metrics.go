package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; a run with --trace 0
// reports exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"lat_p50_us", "us"},
	{"get_p50_us", "us"},
	{"write_p50_us", "us"},
	{"within_slo_frac", "frac"},
	{"ok_frac", "frac"},
	{"footprint_per_live_byte", "ratio"},
}

// perLayer attributes time and work to one layer each; a run with
// --trace 1 reports exactly these. A row that does not apply to a
// workload (the server rows on alloc-churn) reads 0. The tail rows are
// the top rung's 99th percentiles: host vCPU steal moves them several
// fold between runs, so they carry no bound.
var perLayer = []metricDef{
	{"tail.lat_p99_us", "us"},
	{"tail.get_p99_us", "us"},
	{"tail.write_p99_us", "us"},
	{"server.queue_wait_us_p50", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"server.exec_us_p50", "us"},
	{"server.self_us", "us"},
	{"server.rung_us_p50", "us"},
	{"server.shed_frac", "frac"},
	{"server.retries_per_op", "count"},
	{"fabric.submit_ns", "ns"},
	{"fabric.self_us", "us"},
	{"fabric.rung_us_p50", "us"},
	{"fabric.router_rejects_frac", "frac"},
	{"fabric.pod_darks", "count"},
	{"kvstore.get_us", "us"},
	{"kvstore.put_us", "us"},
	{"kvstore.delete_us", "us"},
	{"kvstore.hit_rate", "frac"},
	{"kvstore.core_share", "frac"},
	{"kvstore.rung_us_p50", "us"},
	{"epoch.backlog", "count"},
	{"core.alloc_ns", "ns"},
	{"core.free_ns", "ns"},
	{"core.allocs_per_op", "count"},
	{"core.footprint_mb", "MiB"},
	{"memsim.fetches_per_op", "count"},
	{"memsim.writebacks_per_op", "count"},
	{"memsim.flushes_per_op", "count"},
	{"memsim.fences_per_op", "count"},
	{"memsim.hit_rate", "frac"},
	{"nmp.mcas_per_op", "count"},
	{"nmp.conflict_frac", "frac"},
	{"atomicx.mcas_retries_per_op", "count"},
	{"device.modeled_ns_per_op", "ns"},
	{"host.ns_per_op", "ns"},
	{"liveness.run_ns", "ns"},
	{"liveness.renews_per_op", "count"},
	{"liveness.claims", "count"},
	{"loadgen.ns_per_op", "ns"},
	{"loadgen.lag_p99_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// metrics collects one run's values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// result is one run's outcome: the contract's JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects the catalog's metrics from m. A metric the run did not
// produce is a bug in the benchmark, reported as a problem.
func report(m metrics, defs []metricDef) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}

// writeResult prints a readable table, then the JSON object as the last
// line.
func writeResult(w io.Writer, workload string, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-30s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
