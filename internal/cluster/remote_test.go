package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/resilience"
)

// fakeWorker is a minimal in-test dsed: POST /v1/check runs on a real
// runner, GET/PUT /v1/store/{key} serve a map, and shedFirst makes the
// first N job requests shed with 503 + {"class":"queue-full"}.
type fakeWorker struct {
	runner    *engine.Runner
	shedFirst atomic.Int64

	mu    sync.Mutex
	store map[string][]byte
}

func newFakeWorker() *fakeWorker {
	return &fakeWorker{runner: newRunner(), store: make(map[string][]byte)}
}

func (f *fakeWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		if f.shedFirst.Add(-1) >= 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full", "class": "queue-full"})
			return
		}
		cs := &engine.CheckSpec{}
		if err := json.NewDecoder(r.Body).Decode(cs); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		res, err := f.runner.RunSafe(r.Context(), engine.Job{Kind: engine.KindCheck, Check: cs})
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "class": resilience.Class(err)})
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("GET /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		data, ok := f.store[r.PathValue("key")]
		f.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "miss"})
			return
		}
		w.Write(data)
	})
	mux.HandleFunc("PUT /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.store[r.PathValue("key")] = data
		f.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// TestRemoteBackendRoundTrip pins the HTTP job path: a check shipped
// through RemoteBackend returns the same report bytes as the local run,
// and the store endpoints round-trip raw bytes.
func TestRemoteBackendRoundTrip(t *testing.T) {
	fw := newFakeWorker()
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	job := chanJob()
	want := localBaseline(t, job)
	b := cluster.NewRemoteBackend("w1", srv.URL, resilience.Backoff{})
	if err := b.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	res, err := b.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res); got != want {
		t.Fatalf("remote report differs from local run:\n got: %s\nwant: %s", got, want)
	}

	if _, err := b.Store().Get(context.Background(), "job-nope"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("store miss classified as %v, want ErrNotFound", err)
	}
	if err := b.Store().Put(context.Background(), "job-k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Store().Get(context.Background(), "job-k")
	if err != nil || string(got) != "payload" {
		t.Fatalf("store round-trip: %q, %v", got, err)
	}
}

// TestRemoteBackendRetriesShed pins the admission-control contract: a 503
// shed is transient, so the backend's retry loop absorbs it and the job
// succeeds on the next attempt.
func TestRemoteBackendRetriesShed(t *testing.T) {
	fw := newFakeWorker()
	fw.shedFirst.Store(2)
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	b := cluster.NewRemoteBackend("w1", srv.URL, resilience.Backoff{Attempts: 4, Base: time.Millisecond})
	res, err := b.Run(context.Background(), chanJob())
	if err != nil {
		t.Fatalf("shed not retried: %v", err)
	}
	if res.Check == nil {
		t.Fatal("no report after retries")
	}
}

// TestRemoteBackendShedExhaustsToQueueFull pins the error surface when the
// worker keeps shedding: the returned error classifies as ErrQueueFull
// (the coordinator then re-routes without declaring the node dead).
func TestRemoteBackendShedExhaustsToQueueFull(t *testing.T) {
	fw := newFakeWorker()
	fw.shedFirst.Store(1 << 30)
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	b := cluster.NewRemoteBackend("w1", srv.URL, resilience.Backoff{Attempts: 2, Base: time.Millisecond})
	_, err := b.Run(context.Background(), chanJob())
	if !errors.Is(err, resilience.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull classification", err)
	}
	if cluster.IsUnreachable(err) {
		t.Fatalf("shed misclassified as unreachable: %v", err)
	}
}

// TestRemoteBackendUnreachable pins the transport-failure surface: a dead
// address yields UnreachableError (re-routable) and counts a redial.
func TestRemoteBackendUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // now nothing listens there

	b := cluster.NewRemoteBackend("w1", url, resilience.Backoff{Attempts: 2, Base: time.Millisecond})
	_, err := b.Run(context.Background(), chanJob())
	if !cluster.IsUnreachable(err) {
		t.Fatalf("err = %v, want UnreachableError", err)
	}
	if b.Stats().Redials == 0 {
		t.Fatal("transport failure did not redial the client")
	}
	if err := b.Health(context.Background()); !cluster.IsUnreachable(err) {
		t.Fatalf("health on dead node: %v, want UnreachableError", err)
	}
}

// TestRemoteBackendWorkerErrorPassThrough pins that a deterministic job
// failure on the worker surfaces as a classified WorkerError, not a
// transport failure.
func TestRemoteBackendWorkerErrorPassThrough(t *testing.T) {
	fw := newFakeWorker()
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	bad := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left: "coin:fair:x", Right: "coin:fair:x", Envs: []string{"no:such:ref"},
	}}
	b := cluster.NewRemoteBackend("w1", srv.URL, resilience.Backoff{Attempts: 3, Base: time.Millisecond})
	_, err := b.Run(context.Background(), bad)
	if err == nil || cluster.IsUnreachable(err) {
		t.Fatalf("deterministic worker failure: %v, want classified WorkerError", err)
	}
	var we *cluster.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %T %v, want *cluster.WorkerError", err, err)
	}
}

// TestRemoteCluster pins the full remote topology in-process: a coordinator
// over two HTTP workers merges byte-identically and serves the second run
// from the workers' stores.
func TestRemoteCluster(t *testing.T) {
	var srvs []*httptest.Server
	var backs []cluster.Backend
	for i := 0; i < 2; i++ {
		fw := newFakeWorker()
		srv := httptest.NewServer(fw.handler())
		srvs = append(srvs, srv)
		backs = append(backs, cluster.NewRemoteBackend(srv.URL, srv.URL, resilience.Backoff{Attempts: 2, Base: time.Millisecond}))
	}
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	job := chanJob()
	want := localBaseline(t, job)
	coord, err := cluster.NewCoordinator(backs...)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res1.Result); got != want {
		t.Fatalf("remote cluster report differs from local run")
	}
	res2, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res2.Result); got != want {
		t.Fatalf("store-served remote report differs from local run")
	}
	for _, sh := range res2.Shards {
		if !sh.FromStore {
			t.Fatalf("second run shard not store-served: %+v", sh)
		}
	}
}
