package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/resilience"
)

// newWorkerServer spins up a full dsed worker with a stable worker id.
func newWorkerServer(t *testing.T, id string) *httptest.Server {
	t.Helper()
	s := &server{
		runner:  newRunner(2, 256),
		store:   engine.NewStore(),
		timeout: 30 * time.Second,
		ctx:     context.Background(),
	}
	s.runner.WorkerID = id
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinatorServer spins up a dsed coordinator over the given workers.
func newCoordinatorServer(t *testing.T, workers ...*httptest.Server) *httptest.Server {
	t.Helper()
	var backends []cluster.Backend
	for _, w := range workers {
		backends = append(backends, cluster.NewRemoteBackend(w.URL, w.URL, resilience.Backoff{
			Attempts: 3, Base: time.Millisecond, Cap: 50 * time.Millisecond,
		}))
	}
	coord, err := cluster.NewCoordinator(backends...)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{
		runner:  newRunner(1, 16),
		store:   engine.NewStore(),
		timeout: 30 * time.Second,
		coord:   coord,
		ctx:     context.Background(),
	}
	s.runner.WorkerID = "coordinator"
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

const clusterCheckBody = `{"left":"chan:leaky:x:0.5","right":"chan:ideal:x",` +
	`"envs":["chan:env:x:0","chan:env:x:1"],"schema":"priority",` +
	`"templates":[["send","encrypt","tap","notify","fabricate","deliver"]],` +
	`"eps":0.25,"q1":6,"q2":6}`

// TestClusterEndToEnd is the daemon-level acceptance test for coordinator
// mode: a 2-worker cluster serves a check byte-identical to a single
// worker's answer, attributes shards to worker ids, and the second request
// is store-served.
func TestClusterEndToEnd(t *testing.T) {
	w1 := newWorkerServer(t, "w1")
	w2 := newWorkerServer(t, "w2")
	coord := newCoordinatorServer(t, w1, w2)

	// Baseline: the same check on a plain worker (strip worker attribution
	// and telemetry — per-node accounts, not content).
	solo := newWorkerServer(t, "solo")
	resp, base := post(t, solo.URL+"/v1/check", clusterCheckBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline check: status %d: %s", resp.StatusCode, base)
	}
	var baseRes struct {
		Check json.RawMessage `json:"check"`
	}
	if err := json.Unmarshal(base, &baseRes); err != nil {
		t.Fatal(err)
	}

	type clusterResp struct {
		Kind     string          `json:"kind"`
		WorkerID string          `json:"worker_id"`
		Check    json.RawMessage `json:"check"`
		Shards   []struct {
			Key       string `json:"key"`
			Env       string `json:"env"`
			Worker    string `json:"worker"`
			FromStore bool   `json:"from_store"`
		} `json:"shards"`
	}
	resp, body := post(t, coord.URL+"/v1/check", clusterCheckBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster check: status %d: %s", resp.StatusCode, body)
	}
	var cr clusterResp
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cr.Check, baseRes.Check) {
		t.Fatalf("cluster report differs from single worker:\n got: %s\nwant: %s", cr.Check, baseRes.Check)
	}
	if len(cr.Shards) != 2 {
		t.Fatalf("shards = %+v, want 2", cr.Shards)
	}
	for _, sh := range cr.Shards {
		if sh.Worker != w1.URL && sh.Worker != w2.URL {
			t.Fatalf("shard %+v not attributed to a worker", sh)
		}
	}

	// Second request: served from the workers' content-addressed stores.
	resp, body = post(t, coord.URL+"/v1/check", clusterCheckBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second cluster check: status %d: %s", resp.StatusCode, body)
	}
	var cr2 clusterResp
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cr2.Check, baseRes.Check) {
		t.Fatal("store-served cluster report differs from single worker")
	}
	for _, sh := range cr2.Shards {
		if !sh.FromStore {
			t.Fatalf("second-run shard not store-served: %+v", sh)
		}
	}

	// The coordinator's /v1/debug exposes the per-worker account.
	resp2, err := http.Get(coord.URL + "/v1/debug")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var dbg struct {
		WorkerID string `json:"worker_id"`
		Cluster  *struct {
			Workers []struct {
				ID   string `json:"id"`
				Down bool   `json:"down"`
			} `json:"workers"`
			Dispatched int64 `json:"dispatched"`
			StoreHits  int64 `json:"store_hits"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.WorkerID != "coordinator" {
		t.Fatalf("debug worker_id = %q", dbg.WorkerID)
	}
	if dbg.Cluster == nil || len(dbg.Cluster.Workers) != 2 {
		t.Fatalf("debug cluster section missing or wrong: %+v", dbg.Cluster)
	}
	if dbg.Cluster.Dispatched < 4 || dbg.Cluster.StoreHits < 2 {
		t.Fatalf("cluster counters off: %+v", dbg.Cluster)
	}
}

// TestClusterAsyncRejected pins that coordinator mode refuses ?async=1 —
// queueing is the workers' admission control, not the coordinator's.
func TestClusterAsyncRejected(t *testing.T) {
	w := newWorkerServer(t, "w1")
	coord := newCoordinatorServer(t, w)
	resp, body := post(t, coord.URL+"/v1/check?async=1", clusterCheckBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async in coordinator mode: status %d: %s", resp.StatusCode, body)
	}
}

// TestClusterAllWorkersDown pins the daemon-level dead-cluster surface:
// 503 with the no-workers message, no hang.
func TestClusterAllWorkersDown(t *testing.T) {
	w := newWorkerServer(t, "w1")
	url := w.URL
	w.Close() // worker gone before the first job
	var backends []cluster.Backend
	backends = append(backends, cluster.NewRemoteBackend(url, url, resilience.Backoff{
		Attempts: 2, Base: time.Millisecond,
	}))
	coord, err := cluster.NewCoordinator(backends...)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{
		runner:  newRunner(1, 16),
		store:   engine.NewStore(),
		timeout: 5 * time.Second,
		coord:   coord,
		ctx:     context.Background(),
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, body := post(t, ts.URL+"/v1/check", clusterCheckBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "no live workers") {
		t.Fatalf("dead cluster body: %s", body)
	}
}

// TestStoreEndpoints pins the worker-side content-addressed store facade:
// PUT then GET round-trips, a miss is 404.
func TestStoreEndpoints(t *testing.T) {
	w := newWorkerServer(t, "w1")

	resp, err := http.Get(w.URL + "/v1/store/job-absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("store miss: status %d, want 404", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodPut, w.URL+"/v1/store/job-0001", strings.NewReader(`{"kind":"check"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("store put: status %d, want 204", resp.StatusCode)
	}

	resp, body := get(t, w.URL+"/v1/store/job-0001")
	if resp.StatusCode != http.StatusOK || string(body) != `{"kind":"check"}` {
		t.Fatalf("store get: status %d body %s", resp.StatusCode, body)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}
