package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/resilience"
)

// TestLocalBackendDiskWarmRestart pins the tentpole cluster property: a
// worker whose cache is backed by a disk store persists its shard results,
// so after a "restart" (fresh cache and coordinator over the same
// directory) the warm pass is served from disk byte-identically.
func TestLocalBackendDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	job := chanJob()
	want := localBaseline(t, job)

	node := func() (*cluster.Coordinator, *durable.DiskStore) {
		ds, err := durable.Open(dir, durable.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner()
		r.Results = engine.Tiered(r.Results, ds)
		coord, err := cluster.NewCoordinator(cluster.NewLocalBackend("w0", r))
		if err != nil {
			t.Fatal(err)
		}
		return coord, ds
	}

	// Cold pass: compute and publish; the write-through backing commits the
	// shard results to disk.
	coord1, _ := node()
	res1, err := coord1.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res1.Result); got != want {
		t.Fatalf("cold pass diverged from baseline:\n%s", got)
	}
	for _, sh := range res1.Shards {
		if sh.FromStore {
			t.Fatalf("cold pass served shard %s from store", sh.Key)
		}
	}

	// Restart: a fresh cache and coordinator over the same directory. Every
	// shard must come from the disk-backed store, byte-identically.
	coord2, ds2 := node()
	res2, err := coord2.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res2.Result); got != want {
		t.Fatalf("warm pass diverged from baseline:\n%s", got)
	}
	for _, sh := range res2.Shards {
		if !sh.FromStore {
			t.Errorf("warm pass recomputed shard %s after restart", sh.Key)
		}
	}
	if st := ds2.Stats(); st.Hits == 0 {
		t.Errorf("disk store stats = %+v, want hits > 0", st)
	}
}

// TestReprobeRevivesIdleCluster pins the background re-probe: a worker
// marked down is brought back by StartReprobe with NO job traffic — the
// lazy revive in Run never fires.
func TestReprobeRevivesIdleCluster(t *testing.T) {
	w0 := cluster.NewMockBackend("w0", newRunner())
	w1 := cluster.NewMockBackend("w1", newRunner())
	coord, err := cluster.NewCoordinator(w0, w1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill w1 and run one job so the coordinator marks it down.
	w1.Kill()
	if _, err := coord.Run(context.Background(), chanJob()); err != nil {
		t.Fatal(err)
	}
	down := func() bool {
		for _, w := range coord.Stats().Workers {
			if w.ID == "w1" {
				return w.Down
			}
		}
		t.Fatal("w1 missing from stats")
		return false
	}
	if !down() {
		t.Fatal("killed worker not marked down")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.StartReprobe(ctx, resilience.Backoff{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond})
	w1.Revive()
	deadline := time.Now().Add(5 * time.Second)
	for down() {
		if time.Now().After(deadline) {
			t.Fatal("idle re-probe never revived the restarted worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteBackendStoreOpRestartTransient is the regression for store
// round-trips racing a worker restart: a bare 500 mid-put (the
// listener is up before the store is wired) is retried as a transient blip
// and succeeds; exhausted retries classify as unreachable — never as a
// permanent job-level WorkerError. A 503 shed keeps its own semantics.
func TestRemoteBackendStoreOpRestartTransient(t *testing.T) {
	var failures atomic.Int64
	var puts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		if failures.Load() > 0 {
			failures.Add(-1)
			http.Error(w, "restarting", http.StatusInternalServerError)
			return
		}
		puts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		if failures.Load() > 0 {
			failures.Add(-1)
			http.Error(w, "restarting", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"kind":"check"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	b := cluster.NewRemoteBackend("w0", ts.URL, resilience.Backoff{Attempts: 3, Base: time.Millisecond})

	// One restart blip: the put retries through it.
	failures.Store(1)
	if err := b.Store().Put(context.Background(), "job-1", []byte("data")); err != nil {
		t.Fatalf("store put through a restart blip = %v, want nil", err)
	}
	if puts.Load() != 1 {
		t.Fatalf("puts = %d, want 1", puts.Load())
	}

	// Same for the read side.
	failures.Store(1)
	if _, err := b.Store().Get(context.Background(), "job-1"); err != nil {
		t.Fatalf("store get through a restart blip = %v, want nil", err)
	}

	// A restart outlasting the retry budget is unreachable (re-probe
	// territory, the coordinator marks the node down and revives it later) —
	// the original 500 stays visible in the chain but the classification is
	// transport-level, not job-level.
	failures.Store(100)
	err := b.Store().Put(context.Background(), "job-2", []byte("data"))
	if !cluster.IsUnreachable(err) {
		t.Fatalf("exhausted store put = %v, want UnreachableError", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("exhausted store put = %v, want transient", err)
	}
}

// TestRemoteBackendStoreOpShedStaysWorkerError pins the boundary of the
// restart-blip re-classification: a 503 shed is a saturated-but-alive node
// and must NOT classify as unreachable (that would mark it down).
func TestRemoteBackendStoreOpShedStaysWorkerError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed","class":"queue-full"}`, http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	b := cluster.NewRemoteBackend("w0", ts.URL, resilience.Backoff{Attempts: 2, Base: time.Millisecond})
	err := b.Store().Put(context.Background(), "job-1", []byte("data"))
	if cluster.IsUnreachable(err) {
		t.Fatalf("shed store put classified unreachable: %v", err)
	}
	if !errors.Is(err, resilience.ErrQueueFull) {
		t.Fatalf("shed store put = %v, want ErrQueueFull through WorkerError", err)
	}
}

// TestRemoteBackendRunKeeps5xxSemantics guards against over-reach: the
// restart-blip re-classification applies to store ops only — a 500 from a
// job run (e.g. a recovered panic) must stay a WorkerError.
func TestRemoteBackendRunKeeps5xxSemantics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"internal panic: boom","class":"panic"}`, http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	b := cluster.NewRemoteBackend("w0", ts.URL, resilience.Backoff{Attempts: 2, Base: time.Millisecond})
	_, err := b.Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left: "coin:fair:x", Right: "coin:fair:x", Envs: []string{"coin:env:x"}, Eps: 0.5, Q1: 2,
	}})
	var we *cluster.WorkerError
	if !errors.As(err, &we) || we.Class != "panic" {
		t.Fatalf("run 500 = %v, want WorkerError with class panic", err)
	}
	if cluster.IsUnreachable(err) {
		t.Fatalf("run 500 classified unreachable: %v", err)
	}
}
