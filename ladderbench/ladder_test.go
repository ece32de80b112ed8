package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// tests check the benchmark against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

const shortWindow = 400 * time.Millisecond

func TestSpecMatchesCatalog(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark lists %v", names, benchWorkloads)
	}
	check := func(kind string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark reports %s (%s)", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// A very short run of every workload, untraced and traced, passes its
// checks and emits every metric BENCHMARK.json names, with its unit.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, problems := run(runOpts{workload: w, seed: 7, window: shortWindow, trace: traced})
			if !r.Correct {
				t.Errorf("%s trace=%v: incorrect: %v", w, traced, problems)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, traced, r.Attempted, r.Failed)
			}
			spec := s.EndToEnd
			if traced {
				spec = s.PerLayer
			}
			if len(r.Metrics) != len(spec) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(r.Metrics), len(spec))
			}
			for _, m := range spec {
				v, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, traced, m.Name, v.Unit, m.Unit)
				case !traced && v.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
		}
	}
}

func wantCaught(t *testing.T, o runOpts, what string) {
	t.Helper()
	r, problems := run(o)
	if r.Correct {
		t.Fatalf("%s: planted fault was not caught", o.workload)
	}
	for _, p := range problems {
		if strings.Contains(p, what) {
			return
		}
	}
	t.Fatalf("%s: problems %q do not mention %q", o.workload, problems, what)
}

func TestCheckerCatchesWrongValue(t *testing.T) {
	for _, w := range []string{"kv-update", "kv-read-large"} {
		wantCaught(t, runOpts{workload: w, seed: 3, window: shortWindow, plant: plantWrongValue}, "differ from the expected value")
	}
}

func TestCheckerCatchesLeakedBlock(t *testing.T) {
	wantCaught(t, runOpts{workload: "alloc-churn", seed: 3, window: shortWindow, plant: plantLeak}, "alloc-churn audit")
}

func TestInputsAreSeeded(t *testing.T) {
	a, b := genKVUpdate(5, kvLanes, 1000), genKVUpdate(5, kvLanes, 1000)
	c := genKVUpdate(6, kvLanes, 1000)
	same := func(x, y *kvInputs) bool {
		for l := range x.lanes {
			for i := range x.lanes[l] {
				if x.lanes[l][i] != y.lanes[l][i] {
					return false
				}
			}
		}
		return string(x.vals[0][0]) == string(y.vals[0][0])
	}
	if !same(a, b) {
		t.Error("same seed gave different kv-update inputs")
	}
	if same(a, c) {
		t.Error("different seeds gave identical kv-update inputs")
	}
	for l, ops := range a.lanes {
		for _, op := range ops {
			if int(op.key)%kvLanes != l {
				t.Fatalf("lane %d was given key %d it does not own", l, op.key)
			}
		}
	}
}
