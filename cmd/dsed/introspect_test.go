package main

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// getBody GETs url and returns the response and its body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// promSample matches one exposition-format sample line; comment lines are
// checked separately.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$`)

// promValue extracts the (unlabelled) sample value of the named metric
// from an exposition-format body, or -1 when absent.
func promValue(body, name string) float64 {
	for _, ln := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(ln, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// debugResponse mirrors the /v1/debug JSON shape for decoding in tests.
type debugResponse struct {
	UptimeMS   int64 `json:"uptime_ms"`
	Goroutines int   `json:"goroutines"`
	HeapBytes  int64 `json:"heap_bytes"`
	Workers    int   `json:"workers"`
	Busy       int   `json:"busy"`
	InFlight   int   `json:"inflight"`
	QueueLimit int   `json:"queue_limit"`
	Jobs       []struct {
		ID        string `json:"id"`
		Status    string `json:"status"`
		ElapsedMS int64  `json:"elapsed_ms"`
	} `json:"jobs"`
	Breakers    []resilience.BreakerState `json:"breakers"`
	CacheLen    int                       `json:"cache_len"`
	CacheShards []struct {
		Shard  int   `json:"shard"`
		Len    int   `json:"len"`
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache_shards"`
}

// TestMetricsPromEndpoint pins the Prometheus surface: the content type,
// the line format of every emitted line, and the presence of the daemon's
// own request counter.
func TestMetricsPromEndpoint(t *testing.T) {
	ts := newHardenedServer(t, engine.StoreConfig{})
	resp, body := getBody(t, ts.URL+"/v1/metrics?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for i, ln := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(ln, "# TYPE ") || strings.HasPrefix(ln, "# HELP ") {
			continue
		}
		if !promSample.MatchString(ln) {
			t.Errorf("line %d not exposition format: %q", i+1, ln)
		}
	}
	if promValue(text, "dse_dsed_http_requests") < 1 {
		t.Errorf("dse_dsed_http_requests missing or zero:\n%.400s", text)
	}
	// The JSON view must still be the default.
	resp, body = getBody(t, ts.URL+"/v1/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q", ct)
	}
	if !json.Valid(body) {
		t.Error("default metrics body is not JSON")
	}
}

// TestDebugEndpoint pins /v1/debug on a healthy daemon: pool and queue
// configuration, and a running job showing up with its elapsed time.
func TestDebugEndpoint(t *testing.T) {
	restore := resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	defer restore()
	ts := newHardenedServer(t, engine.StoreConfig{QueueLimit: 8})

	if resp, _ := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var d debugResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := getBody(t, ts.URL+"/v1/debug")
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatalf("debug not JSON: %v: %s", err, body)
		}
		if len(d.Jobs) > 0 && d.Jobs[0].Status == engine.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never showed running in /v1/debug: %+v", d)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.Workers != 2 || d.QueueLimit != 8 || d.InFlight != 1 {
		t.Errorf("workers/queue/inflight = %d/%d/%d, want 2/8/1", d.Workers, d.QueueLimit, d.InFlight)
	}
	if d.UptimeMS < 0 || d.Goroutines < 1 || d.HeapBytes < 1 {
		t.Errorf("uptime=%d goroutines=%d heap_bytes=%d", d.UptimeMS, d.Goroutines, d.HeapBytes)
	}
	if d.Jobs[0].ElapsedMS < 0 {
		t.Errorf("running job elapsed = %d", d.Jobs[0].ElapsedMS)
	}
}

// TestChaosObservability is the chaos-suite introspection check: after a
// breaker trip and a load shed, both incidents must be visible in
// /v1/metrics?format=prom, and the open breaker in /v1/debug.
func TestChaosObservability(t *testing.T) {
	ts := newHardenedServer(t, engine.StoreConfig{
		QueueLimit: 2,
		Breaker:    resilience.NewBreaker(2),
	})

	// Phase 1 — trip the breaker: two injected panics of one spec open it,
	// and a third submission is rejected without running.
	restore := resilience.InstallInjector(resilience.NewInjector(5).
		Arm(resilience.FaultTransitionPanic, 1))
	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts.URL+"/v1/simulate", simulateBody(7)); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(7)); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined submit: status %d, want 422", resp.StatusCode)
	}
	restore()

	// Phase 2 — shed load: stall the queue with injected delays and
	// overflow it.
	restore = resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	defer restore()
	for i := 0; i < 2; i++ {
		if resp, body := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(i)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(2)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit submit: status %d, want 503", resp.StatusCode)
	}

	// Both incidents are on the metrics surface. The counters are
	// process-global, so assert at least the increments this test caused.
	_, body := getBody(t, ts.URL+"/v1/metrics?format=prom")
	text := string(body)
	if v := promValue(text, "dse_engine_jobs_rejected"); v < 1 {
		t.Errorf("dse_engine_jobs_rejected = %v, want >= 1 after quarantine", v)
	}
	if v := promValue(text, "dse_engine_jobs_shed"); v < 1 {
		t.Errorf("dse_engine_jobs_shed = %v, want >= 1 after queue overflow", v)
	}

	// The open breaker is in the debug view, with the quarantined
	// fingerprint's consecutive-panic count.
	var d debugResponse
	_, body = getBody(t, ts.URL+"/v1/debug")
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("debug not JSON: %v", err)
	}
	open := 0
	for _, b := range d.Breakers {
		if b.Open {
			open++
			if b.Consecutive < 2 {
				t.Errorf("open breaker %s consecutive = %d, want >= 2", b.Key, b.Consecutive)
			}
		}
	}
	if open != 1 {
		t.Errorf("debug shows %d open breakers, want 1: %+v", open, d.Breakers)
	}
	if d.InFlight != 2 {
		t.Errorf("inflight = %d, want 2 stalled jobs", d.InFlight)
	}
}

// TestAnswerStoreObservable: a resent request is served from the answer
// store, its run report says so (one engine.answer phase, no work), and
// the store's traffic and size are on /v1/metrics (JSON and Prometheus)
// and /v1/debug. Responses are compact JSON: one line each.
func TestAnswerStoreObservable(t *testing.T) {
	ts := newTestServer(t)
	var first, second engine.Result
	for _, res := range []*engine.Result{&first, &second} {
		resp, body := post(t, ts.URL+"/v1/simulate", simulateBody(3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate: status %d: %s", resp.StatusCode, body)
		}
		if n := strings.Count(string(body), "\n"); n != 1 || !strings.HasSuffix(string(body), "}\n") {
			t.Errorf("response is not one line of JSON (%d newlines): %s", n, body)
		}
		if err := json.Unmarshal(body, res); err != nil {
			t.Fatal(err)
		}
	}
	if rep := second.Report; rep == nil || rep.States != 0 || len(rep.Phases) != 1 || rep.Phases[0].Name != "engine.answer" {
		t.Errorf("resent request's report %+v; want no work and one engine.answer phase", second.Report)
	}
	if first.Simulate == nil || second.Simulate == nil || !reflect.DeepEqual(first.Simulate, second.Simulate) {
		t.Errorf("served result %+v differs from the computed %+v", second.Simulate, first.Simulate)
	}

	var d struct {
		Answers engine.AnswerStats `json:"answers"`
	}
	_, body := getBody(t, ts.URL+"/v1/debug")
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("debug not JSON: %v", err)
	}
	if a := d.Answers; a.Len != 1 || a.Hits != 1 || a.Misses != 1 || a.Bytes <= 0 || a.MaxBytes != engine.AnswerBytes {
		t.Errorf("debug answers = %+v; want one entry, one hit, one miss, a %d-byte budget", a, engine.AnswerBytes)
	}

	_, body = getBody(t, ts.URL+"/v1/metrics?format=prom")
	for _, name := range []string{"dse_engine_answers_hits", "dse_engine_answers_misses", "dse_engine_answers_bytes"} {
		if v := promValue(string(body), name); v < 1 {
			t.Errorf("%s = %v, want >= 1", name, v)
		}
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	_, body = getBody(t, ts.URL+"/v1/metrics")
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["engine.answers.hits"] < 1 || snap.Gauges["engine.answers.bytes"] < 1 {
		t.Errorf("metrics JSON: engine.answers.hits %d, engine.answers.bytes %d; want both >= 1",
			snap.Counters["engine.answers.hits"], snap.Gauges["engine.answers.bytes"])
	}
}
