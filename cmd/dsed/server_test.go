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
		runner:  newRunner(2, 0),
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

// treeCheckOtherEps is treeCheckBody at another eps: a different request,
// so the answer store cannot serve it, with the same f-dist questions, so
// the memoization cache can.
const treeCheckOtherEps = `{"left":"coin:biased:x:0.3","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.3,"q1":3}`

// TestCheckEndToEndWithCacheHits is the daemon acceptance test: a check
// request is served end to end; the same systems checked at another eps
// hit the memoization cache (visible in /v1/metrics); and an identical
// resend is answered from the answer store without touching the cache.
// The dyadic checkBody is answered on the state-collapsed DAG: no request
// of it reads or stores a cache entry or fingerprints a world.
func TestCheckEndToEndWithCacheHits(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct {
		body, other string
		tree        bool
	}{{treeCheckBody, treeCheckOtherEps, true}, {checkBody, "", false}} {
		counters := func() (hits, misses, fps, answers int64) {
			return metricCounter(t, ts.URL, "engine.cache.hits"), metricCounter(t, ts.URL, "engine.cache.misses"),
				metricCounter(t, ts.URL, "engine.fingerprints"), metricCounter(t, ts.URL, "engine.answers.hits")
		}
		type verdict struct {
			Kind  string `json:"kind"`
			Check struct {
				Holds   bool    `json:"Holds"`
				MaxDist float64 `json:"MaxDist"`
			} `json:"check"`
		}
		check := func(what, body string) verdict {
			t.Helper()
			resp, out := post(t, ts.URL+"/v1/check", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", what, resp.StatusCode, out)
			}
			var v verdict
			if err := json.Unmarshal(out, &v); err != nil {
				t.Fatalf("%s: %v in %s", what, err, out)
			}
			if v.Kind != "check" || !v.Check.Holds {
				t.Fatalf("%s result: %s", what, out)
			}
			return v
		}
		hits0, misses0, fps0, _ := counters()
		first := check("first check", c.body)
		if c.tree {
			check("check at another eps", c.other)
			hits, _, _, _ := counters()
			if hits-hits0 == 0 {
				t.Error("the same systems checked at another eps produced no cache hits")
			}
		}
		hits1, misses1, fps1, answers1 := counters()
		second := check("identical check", c.body)
		if second != first {
			t.Errorf("resent check disagrees: %+v vs %+v", second, first)
		}
		hits, misses, fps, answers := counters()
		if answers-answers1 != 1 {
			t.Errorf("identical resend: %d answer-store hits, want 1", answers-answers1)
		}
		if hits != hits1 || misses != misses1 || fps != fps1 {
			t.Errorf("identical resend: %d cache hits, %d misses, %d fingerprints; want none", hits-hits1, misses-misses1, fps-fps1)
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
