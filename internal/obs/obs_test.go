package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestNopHotPathAllocFree verifies the core contract of the no-op tracer:
// an instrumented hot path — fetch the active tracer, check Enabled, bump
// a counter, enter a timed call, time a shard lap and end the call —
// allocates nothing when tracing is disabled.
func TestNopHotPathAllocFree(t *testing.T) {
	prev := obs.SetTracer(nil) // ensure the no-op tracer
	defer obs.SetTracer(prev)
	c := obs.C("obs.test.hotpath")
	allocs := testing.AllocsPerRun(1000, func() {
		tr := obs.Active()
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.KindSchedStep, Name: "x"})
		}
		c.Inc()
		call := obs.Enter(context.Background(), obs.LayerExperiment, "attr")
		lap := call.Lap()
		_ = lap.US()
		call.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %v times per run, want 0", allocs)
	}
}

// TestMetricsConcurrent hammers one registry from many goroutines while
// snapshots are taken; run under -race this is the snapshot race-safety
// check, and the final snapshot must account for every write.
func TestMetricsConcurrent(t *testing.T) {
	r := obs.NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.SetMax(int64(i))
				h.Observe(float64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot() // concurrent reads must be race-free
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	if got := snap.Counters["c"]; got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := snap.Gauges["g"]; got != iters-1 {
		t.Errorf("gauge high-water mark = %d, want %d", got, iters-1)
	}
	h := snap.Histograms["h"]
	if h.Count != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*iters)
	}
	if h.Min != 0 || h.Max != iters-1 {
		t.Errorf("histogram min/max = %v/%v, want 0/%d", h.Min, h.Max, iters-1)
	}
}

// TestRegistryGetOrCreate verifies instruments are shared by name.
func TestRegistryGetOrCreate(t *testing.T) {
	r := obs.NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter(x) returned distinct instances")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge(x) returned distinct instances")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("Histogram(x) returned distinct instances")
	}
}

// TestJSONLRoundTrip checks that every field of an event survives the
// JSONL encoding: each line must individually json.Unmarshal back into an
// equal Event (up to the tracer-stamped timestamp).
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	want := []obs.Event{
		{Kind: obs.KindStateFound, Name: "aut", Attr: "q1", N: 3},
		{Kind: obs.KindSchedStep, Name: "greedy[4]", Attr: "toss", N: 2, V: 0.5},
		{Kind: obs.KindPair, Name: "seq", Attr: "env:ok", V: 0.0625},
	}
	for _, e := range want {
		j.Emit(e)
	}
	prev := obs.SetTracer(j)
	call := obs.Enter(context.Background(), obs.LayerExperiment, "x")
	call.End()
	obs.SetTracer(prev)
	if err := j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Each line is standalone JSON.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want)+2 { // + span.begin/span.end
		t.Fatalf("got %d lines, want %d", len(lines), len(want)+2)
	}
	for i, ln := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}

	got, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	for i, w := range want {
		g := got[i]
		g.T = 0 // stamped by the tracer
		if g != w {
			t.Errorf("event %d = %+v, want %+v", i, g, w)
		}
	}
	if got[3].Kind != obs.KindSpanBegin || got[4].Kind != obs.KindSpanEnd {
		t.Errorf("span events = %v/%v, want begin/end", got[3].Kind, got[4].Kind)
	}
	if got[3].Span == 0 || got[3].Span != got[4].Span {
		t.Errorf("span ids %d/%d do not correlate", got[3].Span, got[4].Span)
	}
}

// TestSnapshotJSON checks the JSON export round-trips.
func TestSnapshotJSON(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(42)
	r.Histogram("c").Observe(3)
	var got obs.Snapshot
	if err := json.Unmarshal(r.Snapshot().JSON(), &got); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	if got.Counters["a"] != 7 || got.Gauges["b"] != 42 || got.Histograms["c"].Count != 1 {
		t.Errorf("round-tripped snapshot = %+v", got)
	}
	text := r.Snapshot().String()
	if !strings.Contains(text, "counter") || !strings.Contains(text, "a") {
		t.Errorf("text summary missing counter line:\n%s", text)
	}
}

// TestCLI exercises the flag-driven lifecycle: Start installs the JSONL
// tracer, Stop flushes the trace and writes the metrics snapshot, and a
// second Stop is a no-op.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	c := &obs.CLI{
		Trace:      filepath.Join(dir, "trace.jsonl"),
		MetricsOut: filepath.Join(dir, "metrics.json"),
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	call := obs.Enter(context.Background(), obs.LayerExperiment, "unit")
	call.End()
	obs.C("obs.test.cli").Inc()
	c.Stop()
	c.Stop() // idempotent

	tf, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer tf.Close()
	events, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if len(events) != 2 {
		t.Errorf("trace has %d events, want 2", len(events))
	}

	mb, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("unmarshal metrics: %v", err)
	}
	if snap.Counters["obs.test.cli"] < 1 {
		t.Errorf("metrics snapshot missing obs.test.cli: %v", snap.Counters)
	}
}
