package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test re-run this binary as cxlbench itself: with
// CXLBENCH_RUN_MAIN set, the process is main() with the remaining args.
func TestMain(m *testing.M) {
	if os.Getenv("CXLBENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A run that fails its gate exits through fatal; it must still stop the
// CPU profile and write the -trace and -metrics outputs, since a failing
// run is the one whose data is wanted.
func TestGateFailureFlushesOutputs(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.ndjson")
	// Replaying a persist cell against the mutant allocator (the
	// oplog flush skipped) fails deterministically.
	cmd := exec.Command(os.Args[0],
		"-exp", "persist", "-seed", "2026", "-persist-point", "small.alloc.post-take",
		"-persist-mask", "0x7ff", "-persist-mutate",
		"-cpuprofile", prof, "-trace", trace, "-metrics", metrics)
	cmd.Env = append(os.Environ(), "CXLBENCH_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("failing persist replay: err = %v, want exit status 1\n%s", err, stderr.Bytes())
	}

	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after a failing run: %v (stat err %v)", fi, err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace after a failing run: %v", err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace after a failing run: %d events, parse err %v", len(tr.TraceEvents), err)
	}
	// The persist experiment measures no cells, so the metrics file is
	// created empty: what matters is that it was opened and closed.
	if _, err := os.Stat(metrics); err != nil {
		t.Fatalf("metrics after a failing run: %v", err)
	}
}
