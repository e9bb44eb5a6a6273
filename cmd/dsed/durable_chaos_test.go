package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/resilience"
)

// durableDaemon is one in-process daemon incarnation over a shared durable
// directory, mirroring main()'s wiring: journal sink on the job store, disk
// store under the cache's memory view, journal replay before serving.
type durableDaemon struct {
	ts     *httptest.Server
	dm     *durable.Manager
	store  *engine.Store
	runner *engine.Runner
	stats  durable.ReplayStats
	kill   context.CancelFunc
}

func startDurableDaemon(t *testing.T, dir string) *durableDaemon {
	t.Helper()
	ds, err := durable.Open(filepath.Join(dir, "store"), durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := durable.OpenJournal(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	dm := durable.NewManager(jr, ds)
	st := engine.NewStoreWith(engine.StoreConfig{Journal: dm})
	ctx, cancel := context.WithCancel(context.Background())
	// Cleanups run last in, first out: cancel the jobs, then wait for them
	// and their store publications, which land after a job reads as done,
	// so none writes into the test's directory while it is removed.
	t.Cleanup(func() {
		drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		st.Drain(drainCtx)
	})
	t.Cleanup(cancel)
	s := &server{
		// One worker slot: submissions past the first provably sit queued
		// when the kill lands.
		runner:  engine.NewRunner(engine.NewPool(1), engine.NewCache(64)),
		store:   st,
		timeout: 30 * time.Second,
		durable: dm,
		ctx:     ctx,
		started: time.Now(),
	}
	s.runner.Results = engine.Tiered(s.runner.Results, ds)
	stats, err := dm.Replay(ctx, st, s.runner)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	dm.SetReplay(stats)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return &durableDaemon{ts: ts, dm: dm, store: st, runner: s.runner, stats: stats, kill: cancel}
}

func submitAsync(t *testing.T, d *durableDaemon, body string) string {
	t.Helper()
	resp, b := post(t, d.ts.URL+"/v1/simulate?async=1", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var rec struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.ID
}

func jobStatus(t *testing.T, d *durableDaemon, id string) (status, class string) {
	t.Helper()
	r, err := http.Get(d.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return "", ""
	}
	var got struct {
		Status   string `json:"status"`
		ErrClass string `json:"error_class"`
	}
	if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got.Status, got.ErrClass
}

// TestChaosDurableKillRestart is the ISSUE acceptance chaos test for the
// durability layer: the daemon is SIGKILLed (journal appends and store
// publications cut dead) with one job completed and three still queued
// behind a deliberately slow worker; the restarted daemon replays the
// journal with zero lost accepted jobs — the completed one is served from
// the disk store without recomputation, the queued ones are re-enqueued
// under their original IDs and run to completion, and the daemon serves
// /healthz throughout.
func TestChaosDurableKillRestart(t *testing.T) {
	dir := t.TempDir()
	d1 := startDurableDaemon(t, dir)

	// Job 0 completes pre-crash; its result lands on disk.
	id0 := submitAsync(t, d1, simulateBody(100))
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := jobStatus(t, d1, id0); st == engine.StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 0 never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitForEntries(t, filepath.Join(dir, "store"), 1)

	// Jobs 1-3 queue behind an injected 10s kernel delay on the single
	// worker slot, so the SIGKILL provably catches them non-terminal. Each
	// gets a fresh exploration bound: the kernel memos key on (automaton,
	// bound) but not seed, and a memo hit would skip the delay point.
	restore := resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	ids := []string{id0}
	for i := 101; i <= 103; i++ {
		ids = append(ids, submitAsync(t, d1, slowBody(i, i-96)))
	}

	// SIGKILL: nothing journals or publishes past this point; the process
	// teardown (ctx cancel) reaps the delayed kernels.
	d1.dm.Kill()
	d1.kill()
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := d1.store.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	restore()

	// Restart over the same directory.
	d2 := startDurableDaemon(t, dir)
	if d2.stats.Served != 1 {
		t.Errorf("replay served = %d, want 1 (job 0 from the disk store)", d2.stats.Served)
	}
	if d2.stats.Requeued != 3 {
		t.Errorf("replay requeued = %d, want 3", d2.stats.Requeued)
	}

	// Zero lost jobs: every pre-crash ID reaches done on the restarted
	// daemon, which keeps answering liveness probes meanwhile.
	deadline = time.Now().Add(60 * time.Second)
	for {
		hr, err := http.Get(d2.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d during recovery", hr.StatusCode)
		}
		done := 0
		for _, id := range ids {
			if st, class := jobStatus(t, d2, id); st == engine.StatusDone {
				done++
			} else if st == engine.StatusFailed {
				t.Fatalf("job %s failed after replay (class %s)", id, class)
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal after restart", done, len(ids))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The served job hit the disk store; /v1/debug exposes the account.
	r, err := http.Get(d2.ts.URL + "/v1/debug")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var dbg struct {
		Durable *durable.DebugStats `json:"durable"`
	}
	if err := json.NewDecoder(r.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Durable == nil || dbg.Durable.Store == nil || dbg.Durable.Replay == nil {
		t.Fatalf("debug durable section missing: %+v", dbg.Durable)
	}
	if dbg.Durable.Store.Hits < 1 {
		t.Errorf("disk store hits = %d, want >= 1 (replay served job 0 from disk)", dbg.Durable.Store.Hits)
	}

	// Byte-identity across the crash: the restored record's result matches
	// a fresh computation of the same spec on the restarted daemon.
	resp, body := post(t, d2.ts.URL+"/v1/simulate", simulateBody(100))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: status %d: %s", resp.StatusCode, body)
	}
	var fresh engine.Result
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	rec, ok := d2.store.Get(id0)
	if !ok || rec.Result == nil {
		t.Fatalf("restored record missing: %+v", rec)
	}
	fresh.Report = nil // run telemetry is per-run, stripped before persistence
	freshJSON, _ := json.Marshal(&fresh)
	restoredJSON, _ := json.Marshal(rec.Result)
	if string(freshJSON) != string(restoredJSON) {
		t.Errorf("restored result not byte-identical to fresh computation:\n got %s\nwant %s", restoredJSON, freshJSON)
	}
}

// slowBody is simulateBody with an explicit exploration bound.
func slowBody(seed, bound int) string {
	return fmt.Sprintf(`{"systems":["coin:fair:x","coin:env:x"],"bound":%d,"seed":%d}`, bound, seed)
}

// waitForEntries polls until the store directory holds n committed entries.
// A job's HTTP status flips to done before its result is published (the
// journal sink runs after the record update), so tests that act on the
// on-disk state must wait on the entry files, not the job status.
func waitForEntries(t *testing.T, dir string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, de := range des {
			if strings.HasPrefix(de.Name(), "e-") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store has %d committed entries, want %d", got, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// corruptAllEntries flips a bit in the payload tail of every committed
// store entry under dir.
func corruptAllEntries(t *testing.T, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), "e-") {
			continue
		}
		p := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x20
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no committed entries to corrupt")
	}
}

// TestChaosDurableCorruptEntryAtBoot pins daemon-level corruption handling:
// a bit-flipped store entry under a restarted daemon is quarantined, the
// affected job is recomputed, and the daemon never fails or serves the
// corrupt bytes.
func TestChaosDurableCorruptEntryAtBoot(t *testing.T) {
	dir := t.TempDir()
	d1 := startDurableDaemon(t, dir)
	id := submitAsync(t, d1, simulateBody(200))
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := jobStatus(t, d1, id); st == engine.StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitForEntries(t, filepath.Join(dir, "store"), 1)
	d1.kill()

	corruptAllEntries(t, filepath.Join(dir, "store"))

	d2 := startDurableDaemon(t, dir)
	if d2.stats.Requeued != 1 {
		t.Errorf("replay requeued = %d, want 1 (corrupt entry forces recompute)", d2.stats.Requeued)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		if st, _ := jobStatus(t, d2, id); st == engine.StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never recomputed after quarantine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := d2.dm.Store().Stats(); st.Corrupt < 1 || st.Quarantined < 1 {
		t.Errorf("store stats = %+v, want corrupt and quarantined >= 1", st)
	}
}
