package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// BENCHMARK.json is generated from the tables in main.go (--manifest);
// this keeps the committed file from drifting away from them.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code says %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads, code has %d", len(m.Workloads), len(specs))
	}
	for i, s := range specs {
		if m.Workloads[i].Name != s.name || m.Workloads[i].Why != s.why {
			t.Errorf("workload %d is %q, code says %q", i, m.Workloads[i].Name, s.name)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", s.name, len(s.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, code has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, code says %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over-long name or unit", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload end to end at a smoke length: set-up, gate, warm-up,
// chunks, verification, and every metric present. Numbers are not
// checked — two-second phases measure nothing.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second")
	}
	runtime.GOMAXPROCS(2)
	for _, s := range specs {
		res, err := runOne(s, 1, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", s.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", s.name, d.Name, v)
			}
		}
	}
}

// The traced run on the cheapest workload: every per-layer metric is
// measured and the trace file is written.
func TestQuickTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	runtime.GOMAXPROCS(2)
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // the trace goes to ./bench/out
		t.Fatal(err)
	}
	defer os.Chdir(old)
	s, _ := findSpec("compose_sparse_net")
	res, err := runTraced(s, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Error("traced run did not verify")
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if fi, err := os.Stat("bench/out/compose_sparse_net.trace.json"); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
