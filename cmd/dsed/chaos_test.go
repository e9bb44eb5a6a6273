package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// newHardenedServer builds a test daemon with the full hardening stack: a
// bounded queue, a circuit breaker shared between the sync and async paths,
// and transient-fault retries. The jobs context is cancelled at cleanup so
// injected delays never outlive the test.
func newHardenedServer(t *testing.T, cfg engine.StoreConfig) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s := &server{
		runner:  newRunner(2, 64),
		store:   engine.NewStoreWith(cfg),
		timeout: 30 * time.Second,
		ctx:     ctx,
		started: time.Now(),
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

func simulateBody(seed int) string {
	return fmt.Sprintf(`{"systems":["coin:fair:x","coin:env:x"],"bound":4,"seed":%d}`, seed)
}

// TestChaosDaemonSurvivesFaults is the ISSUE acceptance chaos test: with
// worker panics and transient job faults injected, every submitted job
// reaches a terminal state (zero lost jobs) and the daemon keeps serving
// /healthz throughout.
func TestChaosDaemonSurvivesFaults(t *testing.T) {
	// The panic point is bounded so it crashes some jobs and then runs dry,
	// giving a mix of panicked and completed jobs under the same chaos run.
	restore := resilience.InstallInjector(resilience.NewInjector(2026).
		ArmN(resilience.FaultTransitionPanic, 0.5, 4).
		Arm(resilience.FaultJobTransient, 0.3).
		Arm(resilience.FaultCacheEvict, 0.5))
	defer restore()
	ts := newHardenedServer(t, engine.StoreConfig{
		QueueLimit: 64,
		Breaker:    resilience.NewBreaker(1000), // count panics, never quarantine here
		Retry:      resilience.Backoff{Attempts: 3, Base: time.Millisecond},
	})

	const jobs = 12
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		// Distinct seeds give distinct fingerprints, so one crash-looping
		// spec cannot shadow the others.
		resp, body := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var rec struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	// While jobs churn through panics and retries, the daemon must answer
	// liveness probes.
	deadline := time.Now().Add(60 * time.Second)
	terminal := map[string]string{}
	for len(terminal) < jobs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal: %v", len(terminal), jobs, terminal)
		}
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d under chaos", hr.StatusCode)
		}
		for _, id := range ids {
			r, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Status   string `json:"status"`
				ErrClass string `json:"error_class"`
			}
			err = json.NewDecoder(r.Body).Decode(&got)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got.Status == engine.StatusDone || got.Status == engine.StatusFailed {
				terminal[id] = got.Status + "/" + got.ErrClass
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero lost jobs: every record is terminal, and failures are classified
	// (a recovered panic, never an unexplained loss).
	failed := 0
	for id, st := range terminal {
		if st == engine.StatusFailed+"/" {
			t.Errorf("job %s failed without a classification", id)
		}
		if strings.HasPrefix(st, engine.StatusFailed) {
			failed++
		}
	}
	t.Logf("chaos outcome: %d done, %d failed-classified of %d", jobs-failed, failed, jobs)
}

// TestChaosDaemonTimeout is the ISSUE acceptance timeout test: a check job
// whose workload is delayed past its timeout answers with a
// deadline-classified error in under 2x the timeout.
func TestChaosDaemonTimeout(t *testing.T) {
	restore := resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	defer restore()
	ts := newHardenedServer(t, engine.StoreConfig{})

	start := time.Now()
	resp, body := post(t, ts.URL+"/v1/check?timeout_ms=250", checkBody)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Class != "deadline" {
		t.Errorf("class = %q, want deadline (%s)", e.Class, body)
	}
	if elapsed >= 500*time.Millisecond {
		t.Errorf("timed-out request took %v, want < 2x the 250ms timeout", elapsed)
	}
}

// TestChaosDaemonQuarantine pins the crash-loop circuit breaker: after K
// consecutive panics of one spec, further submissions are rejected 422
// without running, while other specs stay unaffected.
func TestChaosDaemonQuarantine(t *testing.T) {
	restore := resilience.InstallInjector(resilience.NewInjector(5).
		Arm(resilience.FaultTransitionPanic, 1))
	defer restore()
	ts := newHardenedServer(t, engine.StoreConfig{Breaker: resilience.NewBreaker(2)})

	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/simulate", simulateBody(7))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var e struct {
			Class string `json:"class"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Class != "panic" {
			t.Errorf("request %d class = %q, want panic", i, e.Class)
		}
	}
	resp, body := post(t, ts.URL+"/v1/simulate", simulateBody(7))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined request: status %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Class != "quarantined" {
		t.Errorf("class = %q, want quarantined (%s)", e.Class, body)
	}
	// A different spec still runs (and fails with the injected panic, but
	// is not rejected up front).
	resp, _ = post(t, ts.URL+"/v1/simulate", simulateBody(8))
	if resp.StatusCode == http.StatusUnprocessableEntity {
		t.Error("unrelated spec rejected as quarantined")
	}
}

// TestChaosDaemonQueueShed pins load shedding: submissions past the queue
// bound answer 503 with Retry-After instead of piling up.
func TestChaosDaemonQueueShed(t *testing.T) {
	restore := resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	defer restore()
	ts := newHardenedServer(t, engine.StoreConfig{QueueLimit: 2})

	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts.URL+"/v1/simulate?async=1", simulateBody(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit submit: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var e struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Class != "queue-full" {
		t.Errorf("class = %q, want queue-full (%s)", e.Class, body)
	}
}

// TestBudgetOverrideQueryParams pins the per-request budget override: a
// transition budget on a simulate request degrades it to a partial result.
func TestBudgetOverrideQueryParams(t *testing.T) {
	ts := newHardenedServer(t, engine.StoreConfig{})
	resp, body := post(t, ts.URL+"/v1/simulate?budget_transitions=400",
		`{"systems":["ledger:direct:x:2"],"sched":"random","bound":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Simulate struct {
			Partial   bool    `json:"partial"`
			TotalMass float64 `json:"total_mass"`
		} `json:"simulate"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Simulate.Partial || res.Simulate.TotalMass >= 1 {
		t.Errorf("budgeted simulate = %+v, want a partial sub-probability result", res.Simulate)
	}
	// Bad override values are rejected up front.
	resp, _ = post(t, ts.URL+"/v1/simulate?budget_transitions=-1", simulateBody(1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative budget: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/check?timeout_ms=zebra", checkBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric timeout: status %d, want 400", resp.StatusCode)
	}
}

// TestHandlerPanicRecovered pins the HTTP layer's last-resort boundary: a
// handler panic answers 500 and the daemon keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	// The transition panic fires inside the job, which RunSafe isolates; to
	// hit the HTTP middleware we need a panic outside the runner. Simplest
	// honest probe: a spec whose decode succeeds but whose run panics
	// beyond RunSafe is not constructible from outside, so exercise the
	// middleware directly.
	rec := recoveredProbe{}
	h := recovered(rec)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	// The server goroutine survived; a second request is served.
	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
}

type recoveredProbe struct{}

func (recoveredProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	panic("handler bug")
}
