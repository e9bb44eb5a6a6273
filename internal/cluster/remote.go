package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// RemoteBackend speaks dsed's HTTP job API. The client is mutex-guarded and
// redialed (idle connections torn down, transport state reset) after any
// transport-level failure, and each request is wrapped in resilience.Retry
// so brief disconnects and load sheds (503) heal without the coordinator
// noticing — only an exhausted retry budget surfaces as UnreachableError
// and triggers re-routing.
type RemoteBackend struct {
	id   string
	base string
	// Backoff drives the per-request retry loop. The zero value means a
	// single attempt (no retries).
	backoff resilience.Backoff

	mu     sync.Mutex
	client *http.Client

	jobs    atomic.Int64
	errs    atomic.Int64
	redials atomic.Int64
}

// NewRemoteBackend targets the dsed worker at baseURL (e.g.
// "http://127.0.0.1:8080"), identified as id for sharding and attribution.
// backoff governs per-request retries of transient failures.
func NewRemoteBackend(id, baseURL string, backoff resilience.Backoff) *RemoteBackend {
	return &RemoteBackend{
		id:      id,
		base:    strings.TrimRight(baseURL, "/"),
		backoff: backoff,
		client:  &http.Client{Transport: &http.Transport{}},
	}
}

// ID implements Backend.
func (b *RemoteBackend) ID() string { return b.id }

// httpClient returns the current client under the mutex.
func (b *RemoteBackend) httpClient() *http.Client {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.client
}

// redial resets the client after a transport failure: idle connections are
// closed and a fresh transport installed, so the next attempt dials anew
// instead of reusing a half-dead keep-alive connection (the miniclient
// reconnect pattern, translated to HTTP).
func (b *RemoteBackend) redial() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.redials.Add(1)
	if t, ok := b.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	b.client = &http.Client{Transport: &http.Transport{}}
}

// do issues one HTTP request with retry-on-transient and redial-on-
// transport-failure. It returns the response body and status, or an error:
// UnreachableError for exhausted transport failures, a re-classified
// *WorkerError for job-level failures the worker reported. During a store
// round-trip (storeOp) a 5xx other than a load shed (503) is the footprint
// of a worker restarting mid-request — its listener answers before the
// store is wired up — so it re-classifies as UnreachableError (transient)
// rather than a job-level *WorkerError, letting the retry loop and the
// coordinator's re-probe heal the blip instead of failing the publish
// permanently.
func (b *RemoteBackend) do(ctx context.Context, method, url string, body []byte, contentType string, storeOp bool) (status int, respBody []byte, err error) {
	attempt := func() error {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, rerr := http.NewRequestWithContext(ctx, method, url, rdr)
		if rerr != nil {
			return rerr
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, rerr := b.httpClient().Do(req)
		if rerr != nil {
			b.redial()
			return &UnreachableError{Node: b.id, Err: rerr}
		}
		defer resp.Body.Close()
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			b.redial()
			return &UnreachableError{Node: b.id, Err: rerr}
		}
		status, respBody = resp.StatusCode, data
		if resp.StatusCode >= 400 {
			cerr := b.classify(resp.StatusCode, data)
			if storeOp && resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
				return &UnreachableError{Node: b.id, Err: cerr}
			}
			return cerr
		}
		return nil
	}
	err = resilience.Retry(ctx, b.backoff, attempt)
	return status, respBody, err
}

// classify turns a worker's {error, class} payload into a typed error so
// coordinator policy (re-route, fail fast, surface verbatim) keys off
// errors.Is instead of string matching. Load sheds stay transient.
func (b *RemoteBackend) classify(status int, body []byte) error {
	var payload struct {
		Error string `json:"error"`
		Class string `json:"class"`
	}
	json.Unmarshal(body, &payload)
	msg := payload.Error
	if msg == "" {
		msg = fmt.Sprintf("http %d", status)
	}
	return &WorkerError{Node: b.id, Status: status, Class: payload.Class, Msg: msg}
}

// WorkerError is a job-level failure reported by a worker over HTTP,
// carrying the worker's resilience classification. Is() re-anchors it to
// the matching resilience sentinel so the coordinator's error policy is
// identical for local and remote backends.
type WorkerError struct {
	Node   string
	Status int
	// Class is the worker-side resilience.Class string ("queue-full",
	// "quarantined", "deadline", ...), or "" for unclassified failures.
	Class string
	Msg   string
}

func (e *WorkerError) Error() string {
	if e.Class != "" {
		return fmt.Sprintf("cluster: worker %s: %s (%s)", e.Node, e.Msg, e.Class)
	}
	return fmt.Sprintf("cluster: worker %s: %s", e.Node, e.Msg)
}

// Is maps the wire classification back onto the resilience sentinels.
func (e *WorkerError) Is(target error) bool {
	switch e.Class {
	case "queue-full":
		return target == resilience.ErrQueueFull
	case "quarantined":
		return target == resilience.ErrQuarantined
	case "budget":
		return target == resilience.ErrBudgetExceeded
	case "deadline":
		return target == resilience.ErrDeadline
	case "cancelled":
		return target == resilience.ErrCancelled
	}
	return false
}

// Transient mirrors the worker-side classification: a shed (503) clears on
// its own, everything else needs intervention or is deterministic.
func (e *WorkerError) Transient() bool { return e.Status == http.StatusServiceUnavailable }

// Run implements Backend: POST /v1/{kind} with the kind's spec as body and
// the job limits as query overrides (the daemon's spec schema is strict, so
// limits travel in the URL).
func (b *RemoteBackend) Run(ctx context.Context, job engine.Job) (*engine.Result, error) {
	b.jobs.Add(1)
	var spec any
	switch job.Kind {
	case engine.KindCheck:
		spec = job.Check
	case engine.KindSimulate:
		spec = job.Simulate
	case engine.KindDescribe:
		spec = job.Describe
	default:
		b.errs.Add(1)
		return nil, fmt.Errorf("cluster: unknown job kind %q", job.Kind)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.errs.Add(1)
		return nil, fmt.Errorf("cluster: encode %s spec: %w", job.Kind, err)
	}
	q := make([]string, 0, 4)
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"timeout_ms", job.TimeoutMS},
		{"budget_states", job.BudgetStates},
		{"budget_transitions", job.BudgetTransitions},
		{"budget_wall_ms", job.BudgetWallMS},
	} {
		if f.v > 0 {
			q = append(q, f.name+"="+strconv.FormatInt(f.v, 10))
		}
	}
	url := b.base + "/v1/" + job.Kind
	if len(q) > 0 {
		url += "?" + strings.Join(q, "&")
	}
	_, respBody, err := b.do(ctx, http.MethodPost, url, body, "application/json", false)
	if err != nil {
		b.errs.Add(1)
		return nil, err
	}
	res := &engine.Result{}
	if err := json.Unmarshal(respBody, res); err != nil {
		b.errs.Add(1)
		return nil, &UnreachableError{Node: b.id, Err: fmt.Errorf("bad result payload: %w", err)}
	}
	return res, nil
}

// Health implements Backend via the daemon's liveness probe.
func (b *RemoteBackend) Health(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := b.httpClient().Do(req)
	if err != nil {
		b.redial()
		return &UnreachableError{Node: b.id, Err: err}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &UnreachableError{Node: b.id, Err: fmt.Errorf("healthz %d", resp.StatusCode)}
	}
	return nil
}

// Store implements Backend with the worker's GET/PUT /v1/store/{key}.
func (b *RemoteBackend) Store() engine.Blobs { return remoteStore{b} }

type remoteStore struct{ b *RemoteBackend }

// Get fetches the entry under key; a 404 comes back wrapping
// engine.ErrNotFound so remote and local misses classify alike.
func (r remoteStore) Get(ctx context.Context, key string) ([]byte, error) {
	status, body, err := r.b.do(ctx, http.MethodGet, r.b.base+"/v1/store/"+key, nil, "", true)
	if err != nil {
		if status == http.StatusNotFound {
			return nil, fmt.Errorf("cluster: worker %s: %w", r.b.id, engine.ErrNotFound)
		}
		return nil, err
	}
	return body, nil
}

// Put publishes data under key. A worker restarting mid-put surfaces as a
// transient blip (retried, then UnreachableError), never a permanent
// job-level failure — the payload is content-addressed, so re-publishing
// it later is always safe.
func (r remoteStore) Put(ctx context.Context, key string, data []byte) error {
	_, _, err := r.b.do(ctx, http.MethodPut, r.b.base+"/v1/store/"+key, data, "application/octet-stream", true)
	return err
}

// Stats implements Backend.
func (b *RemoteBackend) Stats() BackendStats {
	return BackendStats{Jobs: b.jobs.Load(), Errors: b.errs.Load(), Redials: b.redials.Load()}
}
