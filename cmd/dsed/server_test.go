package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := &server{
		runner:  engine.NewRunner(engine.NewPool(2), engine.NewCache(0)),
		store:   engine.NewStore(),
		timeout: 30 * time.Second,
		ctx:     context.Background(),
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

const checkBody = `{"left":"coin:biased:x:0.625","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.125,"q1":3}`

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func metricCounter(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters[name]
}

// treeCheckBody is checkBody on a 0.3 coin, whose masses are not dyadic,
// so its f-dists take the tree route, which the memoization cache serves.
const treeCheckBody = `{"left":"coin:biased:x:0.3","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.25,"q1":3}`

// TestCheckEndToEndWithCacheHits is the daemon acceptance test: a check
// request is served end to end, and a second identical request hits the
// memoization cache (visible in /v1/metrics). The dyadic checkBody is
// answered on the state-collapsed DAG: neither request reads or stores a
// cache entry or fingerprints a world.
func TestCheckEndToEndWithCacheHits(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct {
		body string
		tree bool
	}{{treeCheckBody, true}, {checkBody, false}} {
		counters := func() (hits, misses, fps int64) {
			return metricCounter(t, ts.URL, "engine.cache.hits"), metricCounter(t, ts.URL, "engine.cache.misses"),
				metricCounter(t, ts.URL, "engine.fingerprints")
		}
		hits0, misses0, fps0 := counters()
		var first, second struct {
			Kind  string `json:"kind"`
			Check struct {
				Holds   bool    `json:"Holds"`
				MaxDist float64 `json:"MaxDist"`
			} `json:"check"`
		}
		resp, body := post(t, ts.URL+"/v1/check", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first check: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &first); err != nil {
			t.Fatalf("first check: %v in %s", err, body)
		}
		if first.Kind != "check" || !first.Check.Holds {
			t.Fatalf("first check result: %s", body)
		}

		resp, body = post(t, ts.URL+"/v1/check", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("second check: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &second); err != nil {
			t.Fatal(err)
		}
		if second.Check.Holds != first.Check.Holds || second.Check.MaxDist != first.Check.MaxDist {
			t.Errorf("cached check disagrees: %+v vs %+v", second, first)
		}
		hits, misses, fps := counters()
		if c.tree && hits-hits0 == 0 {
			t.Error("second identical check produced no cache hits")
		}
		if !c.tree && (hits != hits0 || misses != misses0 || fps != fps0) {
			t.Errorf("dyadic checks: %d cache hits, %d misses, %d fingerprints; want none", hits-hits0, misses-misses0, fps-fps0)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/check?async=1", checkBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var rec struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" {
		t.Fatalf("no job id in %s", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == engine.StatusDone {
			break
		}
		if got.Status == engine.StatusFailed {
			t.Fatal("async job failed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The job list includes it.
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Errorf("jobs list has %d entries", len(list))
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/check", `{"nope": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/check", `{"left":"coin:fair:x"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("incomplete spec: status %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/j9999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
}
