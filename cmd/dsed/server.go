package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
)

// Observability instruments for the HTTP layer.
var (
	cHTTPRequests = obs.C("dsed.http.requests")
	cHTTPErrors   = obs.C("dsed.http.errors")
	cHTTPPanics   = obs.C("dsed.http.panics")
)

// maxStoreEntry bounds a PUT /v1/store/{key} body (16 MiB — far above any
// real result payload, cheap insurance against a runaway peer).
const maxStoreEntry = 16 << 20

// server wires the engine's runner and job store to the HTTP API.
type server struct {
	runner  *engine.Runner
	store   *engine.Store
	timeout time.Duration
	// coord, when non-nil, puts the daemon in coordinator mode: sync jobs
	// are sharded across the cluster's workers instead of run locally.
	coord *cluster.Coordinator
	// durable, when non-nil, is the crash-safety layer (-store-dir /
	// -journal): the disk tier of the runner's result store and the
	// write-ahead job journal (see docs/DURABILITY.md).
	durable *durable.Manager
	// budget is the default per-job work budget applied when a request
	// does not set its own (zero fields = unlimited).
	budget budgetDefaults
	// ctx is the daemon's jobs context: async jobs detach from their
	// request and run under it. It is separate from the shutdown signal
	// so main can drain in-flight jobs first and cancel stragglers after.
	ctx context.Context
	// started stamps process start for the /v1/debug uptime field.
	started time.Time
}

// budgetDefaults carries the daemon-level -budget-* flag values.
type budgetDefaults struct {
	states, transitions, wallMS int64
}

// handler builds the daemon's route table:
//
//	POST /v1/check      — run an implementation check (?async=1 to queue)
//	POST /v1/simulate   — run a simulation (?async=1 to queue)
//	POST /v1/describe   — profile systems (?async=1 to queue)
//	GET  /v1/jobs       — list submitted jobs
//	GET  /v1/jobs/{id}  — fetch one job record
//	GET  /v1/store/{key} — fetch a content-addressed result (404 on miss)
//	PUT  /v1/store/{key} — publish a content-addressed result (204)
//	GET  /v1/metrics    — obs metrics snapshot (JSON; ?format=prom for
//	                      Prometheus text exposition format 0.0.4)
//	GET  /v1/debug      — live introspection: uptime, pool occupancy,
//	                      in-flight jobs with elapsed time, breaker states,
//	                      cache shard occupancy, sort-memo stats
//	GET  /healthz       — liveness probe
//
// Job routes accept query overrides: ?timeout_ms=, ?budget_states=,
// ?budget_transitions=, ?budget_wall_ms= (the spec body schema is strict,
// so per-request limits travel in the URL).
//
// The whole table is wrapped in a panic-recovery middleware: a handler
// panic is answered with 500 instead of killing the connection — and the
// breaker keeps counting panics per job fingerprint underneath, so a spec
// that reliably panics is quarantined with 422 after K attempts.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.jobHandler(engine.KindCheck))
	mux.HandleFunc("POST /v1/simulate", s.jobHandler(engine.KindSimulate))
	mux.HandleFunc("POST /v1/describe", s.jobHandler(engine.KindDescribe))
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		writeJSON(w, http.StatusOK, s.store.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		rec, ok := s.store.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		data, err := s.runner.Results.Get(r.Context(), r.PathValue("key"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})
	mux.HandleFunc("PUT /v1/store/{key}", func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		// The store's memory tier is the bounded striped cache, so an
		// oversized body only wastes transfer; cap it anyway to keep a bad
		// peer cheap.
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStoreEntry))
		if err != nil {
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		if err := s.runner.Results.Put(r.Context(), r.PathValue("key"), data); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", obs.PromContentType)
			w.WriteHeader(http.StatusOK)
			obs.Default.Snapshot().WriteProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(obs.Default.Snapshot().JSON())
	})
	mux.HandleFunc("GET /v1/debug", func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		writeJSON(w, http.StatusOK, s.debugInfo())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return recovered(mux)
}

// debugState is the GET /v1/debug response: a live snapshot of the
// daemon's moving parts for operators diagnosing a stuck or overloaded
// instance.
type debugState struct {
	// WorkerID is this node's stable identity (-worker-id flag, hostname
	// derived by default), the id stamped on every result it computes.
	WorkerID   string `json:"worker_id"`
	UptimeMS   int64  `json:"uptime_ms"`
	Goroutines int    `json:"goroutines"`
	// Pool occupancy: Busy of Workers tasks running right now.
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	// Queue: async jobs queued or running, against the shed limit
	// (0 = unbounded).
	InFlight   int `json:"inflight"`
	QueueLimit int `json:"queue_limit"`
	// Jobs are the non-terminal job records with elapsed wall time.
	Jobs []debugJob `json:"jobs"`
	// Breakers lists per-fingerprint breaker states (open or counting).
	Breakers []resilience.BreakerState `json:"breakers"`
	// Cache is the memoization cache: total occupancy plus per-shard
	// occupancy and contention counters.
	CacheLen    int                     `json:"cache_len"`
	CacheShards []engine.CacheShardStat `json:"cache_shards"`
	// SortMemo is the psioa canonical-sort memo.
	SortMemo psioa.SortMemoStats `json:"sort_memo"`
	// Cluster is the coordinator's per-worker account (coordinator mode
	// only): each worker's liveness, traffic and store counters plus the
	// dispatch/re-route/store-hit totals.
	Cluster *cluster.CoordinatorStats `json:"cluster,omitempty"`
	// Durable is the crash-safety layer's account (present only with
	// -store-dir/-journal): disk store occupancy and hit/corrupt counters,
	// journal path and append count, and the boot-time replay stats.
	Durable *durable.DebugStats `json:"durable,omitempty"`
}

// debugJob is one queued or running job in the /v1/debug view.
type debugJob struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Status    string `json:"status"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// debugInfo assembles the /v1/debug snapshot. The pieces are sampled
// independently (pool, store, cache), so the snapshot is not a consistent
// cut — fine for introspection.
func (s *server) debugInfo() debugState {
	d := debugState{
		WorkerID:    s.runner.WorkerID,
		UptimeMS:    time.Since(s.started).Milliseconds(),
		Goroutines:  runtime.NumGoroutine(),
		Workers:     s.runner.Pool.Workers(),
		Busy:        s.runner.Pool.Busy(),
		InFlight:    s.store.InFlight(),
		QueueLimit:  s.store.QueueLimit(),
		Jobs:        []debugJob{},
		Breakers:    s.store.Breaker().Snapshot(),
		CacheShards: s.runner.Cache.ShardStats(),
		SortMemo:    psioa.SortMemoSnapshot(),
	}
	now := time.Now()
	for _, rec := range s.store.List() {
		if rec.Status != engine.StatusQueued && rec.Status != engine.StatusRunning {
			continue
		}
		since := rec.Started
		if since.IsZero() {
			since = rec.Submitted
		}
		d.Jobs = append(d.Jobs, debugJob{
			ID:        rec.ID,
			Kind:      rec.Kind,
			Status:    rec.Status,
			ElapsedMS: now.Sub(since).Milliseconds(),
		})
	}
	for _, sh := range d.CacheShards {
		d.CacheLen += sh.Len
	}
	if s.coord != nil {
		st := s.coord.Stats()
		d.Cluster = &st
	}
	d.Durable = s.durable.Debug()
	return d
}

// recovered is the last-resort panic boundary of the HTTP layer.
func recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				cHTTPPanics.Inc()
				httpError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", rec))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// jobHandler decodes the kind-specific spec from the request body and either
// runs it synchronously (the default: 200 with the result) or queues it
// (?async=1: 202 with the job record, poll GET /v1/jobs/{id}).
func (s *server) jobHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cHTTPRequests.Inc()
		job := engine.Job{Kind: kind}
		var spec any
		switch kind {
		case engine.KindCheck:
			job.Check = &engine.CheckSpec{}
			spec = job.Check
		case engine.KindSimulate:
			job.Simulate = &engine.SimulateSpec{}
			spec = job.Simulate
		case engine.KindDescribe:
			job.Describe = &engine.DescribeSpec{}
			spec = job.Describe
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s spec: %w", kind, err))
			return
		}
		if err := applyOverrides(&job, r); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if job.TimeoutMS <= 0 {
			job.TimeoutMS = s.timeout.Milliseconds()
		}
		if job.BudgetStates <= 0 {
			job.BudgetStates = s.budget.states
		}
		if job.BudgetTransitions <= 0 {
			job.BudgetTransitions = s.budget.transitions
		}
		if job.BudgetWallMS <= 0 {
			job.BudgetWallMS = s.budget.wallMS
		}
		if s.coord != nil {
			// Coordinator mode: shard across the cluster. The async job
			// store is a per-node facility; queueing belongs on the workers
			// (their 503 sheds are the cluster's admission control).
			if r.URL.Query().Get("async") == "1" {
				httpError(w, http.StatusBadRequest, fmt.Errorf("async jobs are not supported in coordinator mode"))
				return
			}
			res, err := s.coord.Run(r.Context(), job)
			if err != nil {
				code := statusFor(err)
				if errors.Is(err, cluster.ErrNoWorkers) {
					code = http.StatusServiceUnavailable
				}
				httpError(w, code, err)
				return
			}
			writeJSON(w, http.StatusOK, res)
			return
		}
		if r.URL.Query().Get("async") == "1" {
			// Detach from the request context: the job outlives the request
			// and is bounded by the job timeout and the jobs context.
			rec, err := s.store.Submit(s.ctx, s.runner, job)
			if err != nil {
				httpError(w, statusFor(err), err)
				return
			}
			writeJSON(w, http.StatusAccepted, rec)
			return
		}
		// The synchronous path shares the store's breaker: a quarantined
		// spec is rejected up front, and every outcome is observed so the
		// sync and async paths count panics against the same fingerprint.
		fp := job.Fingerprint()
		if err := s.store.Breaker().Allow(fp); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		res, err := s.runner.RunSafe(r.Context(), job)
		s.store.Breaker().Observe(fp, err)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// applyOverrides reads the per-request limit overrides from the query.
func applyOverrides(job *engine.Job, r *http.Request) error {
	for _, f := range []struct {
		name string
		dst  *int64
	}{
		{"timeout_ms", &job.TimeoutMS},
		{"budget_states", &job.BudgetStates},
		{"budget_transitions", &job.BudgetTransitions},
		{"budget_wall_ms", &job.BudgetWallMS},
	} {
		raw := r.URL.Query().Get(f.name)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad %s %q", f.name, raw)
		}
		*f.dst = v
	}
	return nil
}

// statusFor maps resilience classifications to HTTP statuses: shed load is
// 503 (retryable), deadlines and cancellations 504, quarantined specs and
// ordinary job failures 422, recovered panics 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, resilience.ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, resilience.ErrDeadline), errors.Is(err, resilience.ErrCancelled):
		return http.StatusGatewayTimeout
	case errors.Is(err, resilience.ErrQuarantined):
		return http.StatusUnprocessableEntity
	}
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	cHTTPErrors.Inc()
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	body := map[string]string{"error": err.Error()}
	if class := resilience.Class(err); class != "" {
		body["class"] = class
	}
	writeJSON(w, code, body)
}
