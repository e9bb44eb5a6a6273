package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestWalkDP pins the walk oracle to executions counted by hand.
func TestWalkDP(t *testing.T) {
	for _, tc := range []struct {
		n, b int
		want walkAnswer
	}{
		// x0 steps once, to x1 or back to x0.
		{1, 1, walkAnswer{hit: 0, final: map[string]float64{"x0": 0.5, "x1": 0.5}, executions: 2, maxLen: 1}},
		// From x1 the hit fires; from x0 one more step.
		{1, 2, walkAnswer{hit: 0.5, final: map[string]float64{"end": 0.5, "x1": 0.25, "x0": 0.25}, executions: 3, maxLen: 2}},
		{2, 2, walkAnswer{hit: 0, final: map[string]float64{"x2": 0.25, "x1": 0.25, "x0": 0.5}, executions: 4, maxLen: 2}},
		// Paths x0x1x2|end, x0x1x0x*, x0x0x1x*, x0x0x0x*: end 1/4 (1 path),
		// x2 1/8 (1), x1 1/4 (2), x0 3/8 (3).
		{2, 3, walkAnswer{hit: 0.25, final: map[string]float64{"end": 0.25, "x2": 0.125, "x1": 0.25, "x0": 0.375}, executions: 7, maxLen: 3}},
	} {
		if got := walkDP(tc.n, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("walkDP(%d, %d) = %+v, want %+v", tc.n, tc.b, got, tc.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program and BENCHMARK.json in
// step: same workloads, same metrics with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("BENCHMARK.json paths %v, want [bench]", b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEndMetrics}, {b.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func smokeConfig(t *testing.T, trace bool) *config {
	return &config{
		seed: 1, seconds: 10 * time.Second, trace: trace, nproc: runtime.NumCPU(),
		rundir: t.TempDir(), jobs: 1, start: time.Now(),
	}
}

// checkOutcome expects a correct run reporting every metric of its mode.
func checkOutcome(t *testing.T, name string, trace bool, out *outcome) {
	t.Helper()
	if out.attempted == 0 || out.failed != 0 {
		t.Fatalf("%s: %d of %d jobs failed", name, out.failed, out.attempted)
	}
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	if len(out.metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", name, len(out.metrics), len(defs))
	}
	if trace {
		if c := out.metrics[1]; c.Name != "trace.coverage" || c.Value < 0.9 {
			t.Errorf("%s: trace coverage %v, want at least 0.9", name, c.Value)
		}
	}
}

// TestInprocSmoke runs each in-process workload for one job at a small
// size, untraced and traced; the traced run fails unless every replay
// reproduces its direct call byte for byte.
func TestInprocSmoke(t *testing.T) {
	cases := map[string]func() inproc{
		"emulate-sessions": func() inproc { return &emulate{sessions: 1} },
		"describe-ledger":  func() inproc { return &describe{chains: 1} },
		"measure-kernels":  func() inproc { return &kernels{} },
	}
	for name, mk := range cases {
		for _, trace := range []bool{false, true} {
			out, err := runInproc(smokeConfig(t, trace), mk())
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", name, trace, err)
			}
			checkOutcome(t, name, trace, out)
		}
	}
}

// TestDsedMixSmoke drives a freshly built dsed with a few requests.
func TestDsedMixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts cmd/dsed")
	}
	bin := filepath.Join(t.TempDir(), "dsed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/dsed").CombinedOutput(); err != nil {
		t.Fatalf("build dsed: %v\n%s", err, out)
	}
	for _, trace := range []bool{false, true} {
		cfg := smokeConfig(t, trace)
		cfg.dsed, cfg.jobs = bin, 20
		out, err := runDsedMix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, "dsed-mix", trace, out)
	}
}

// TestReportFormat checks the summary line's shape.
func TestReportFormat(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := &outcome{attempted: 3, clients: 1}
	out.endToEnd([]float64{0.5}, []float64{1, 2, 3}, 6*time.Millisecond, 9*time.Millisecond, 100)
	if err := report(f, &config{workload: "x", seconds: time.Second}, out); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var last string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		last = sc.Text()
	}
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("summary keys %v, want %v", keys, want)
	}
	var m map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(sum["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	if got := m["wall_s"]; got.Value != 0.006 || got.Unit != "s" {
		t.Errorf("wall_s = %+v, want 0.006 s", got)
	}
}
