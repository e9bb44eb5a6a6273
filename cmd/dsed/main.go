// dsed is the verification daemon: it serves the implementation checks,
// simulations and resource-bound profiles of the framework over HTTP,
// running every job on one shared worker pool with one shared memoization
// cache — repeated checks of the same systems reuse each other's measure
// expansions (watch engine.cache.hits in GET /v1/metrics).
//
// Usage:
//
//	dsed -addr :8080 -workers 8 -cache-size 4096
//
//	curl -X POST localhost:8080/v1/check -d '{
//	  "left": "coin:biased:x:0.625", "right": "coin:fair:x",
//	  "envs": ["coin:env:x"], "eps": 0.125, "q1": 3}'
//
// See docs/ENGINE.md for the full API walkthrough and docs/ROBUSTNESS.md
// for the hardening knobs (-queue, -breaker-k, -retries, -drain,
// -budget-*).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/resilience"
)

var ocli obs.CLI

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size for jobs and the parallel measure kernels (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", engine.DefaultCacheSize, "memoization cache entries")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job timeout")
	queue := flag.Int("queue", 64, "max async jobs in flight before shedding with 503 (0 = unbounded)")
	breakerK := flag.Int("breaker-k", 3, "consecutive panics before a job fingerprint is quarantined")
	retries := flag.Int("retries", 2, "retry attempts for transient job failures")
	drain := flag.Duration("drain", 10*time.Second, "grace period for in-flight jobs on shutdown")
	budgetStates := flag.Int64("budget-states", 0, "default per-job state budget (0 = unlimited)")
	budgetTrans := flag.Int64("budget-transitions", 0, "default per-job transition budget (0 = unlimited)")
	workerID := flag.String("worker-id", "", "stable node identity stamped on results (default: hostname + addr)")
	coordinator := flag.String("coordinator", "", "comma-separated worker URLs; non-empty runs this daemon as a cluster coordinator (see docs/CLUSTER.md)")
	storeDir := flag.String("store-dir", "", "directory for the durable content-addressed result store; empty keeps results in memory only (see docs/DURABILITY.md)")
	journalPath := flag.String("journal", "", "write-ahead job journal path (default: <store-dir>/journal.jsonl when -store-dir is set; empty with no -store-dir disables journaling)")
	storeMax := flag.Int("store-max", durable.DefaultMaxEntries, "durable store entry bound before LRU eviction")
	fsync := flag.Bool("fsync", true, "fsync durable store commits and journal appends (disabling trades crash durability of the tail for speed; torn writes are still quarantined, never served)")
	ocli.Register(flag.CommandLine)
	flag.Parse()
	fatal(ocli.Start())

	if *workerID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "dsed"
		}
		*workerID = host + *addr
	}

	// Durability layer: a disk-backed content-addressed store under the
	// cache's memory view, plus a write-ahead journal of async job
	// lifecycles. Either piece runs alone; both empty means the daemon is
	// memory-only, exactly as before.
	var dm *durable.Manager
	if *storeDir != "" || *journalPath != "" {
		var ds *durable.DiskStore
		if *storeDir != "" {
			var err error
			ds, err = durable.Open(*storeDir, durable.StoreOptions{MaxEntries: *storeMax, NoFsync: !*fsync})
			fatal(err)
			if *journalPath == "" {
				*journalPath = filepath.Join(*storeDir, "journal.jsonl")
			}
		}
		jr, err := durable.OpenJournal(*journalPath, !*fsync)
		fatal(err)
		dm = durable.NewManager(jr, ds)
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Jobs run under their own context, decoupled from the shutdown
	// signal: on SIGTERM the listener closes and in-flight jobs get the
	// drain grace period before jobCancel interrupts their kernels.
	jobCtx, jobCancel := context.WithCancel(context.Background())
	defer jobCancel()

	storeCfg := engine.StoreConfig{
		QueueLimit: *queue,
		Breaker:    resilience.NewBreaker(*breakerK),
		Retry: resilience.Backoff{
			Attempts: *retries + 1,
			Base:     25 * time.Millisecond,
			Cap:      2 * time.Second,
			Jitter:   0.2,
			Seed:     1,
		},
	}
	if dm != nil {
		storeCfg.Journal = dm
	}
	store := engine.NewStoreWith(storeCfg)
	srv := &server{
		runner:  engine.NewRunner(engine.NewPool(*workers), engine.NewCache(*cacheSize)),
		store:   store,
		timeout: *timeout,
		durable: dm,
		budget:  budgetDefaults{states: *budgetStates, transitions: *budgetTrans},
		ctx:     jobCtx,
		started: time.Now(),
	}
	srv.runner.WorkerID = *workerID
	if dm != nil && dm.Store() != nil {
		// The disk store becomes the tier under the cache's memory view:
		// memory misses fall through to it, store puts write through, so
		// the warm store survives restarts and cluster peers are served
		// from disk after a worker bounce.
		srv.runner.Results = engine.Tiered(srv.runner.Results, dm.Store())
	}
	if dm != nil {
		// Replay the journal before accepting traffic: completed results
		// are restored from the disk store (byte-identical), and
		// accepted-but-unfinished jobs are re-enqueued under their original
		// IDs — unless their result is already stored, in which case the
		// idempotency guard serves it instead of recomputing.
		stats, err := dm.Replay(jobCtx, store, srv.runner)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsed: journal replay:", err)
		}
		dm.SetReplay(stats)
		if stats.Jobs > 0 {
			fmt.Fprintf(os.Stderr, "dsed: replayed %d journal records: %d jobs, %d restored (%d served from store), %d re-enqueued\n",
				stats.Records, stats.Jobs, stats.Restored, stats.Served, stats.Requeued)
		}
	}
	if *coordinator != "" {
		// Coordinator mode: jobs shard across the listed workers. Each
		// backend is identified by its URL — stable across coordinator
		// restarts, which keeps rendezvous placement stable too. The
		// retry budget mirrors the async store's.
		var backends []cluster.Backend
		for _, raw := range strings.Split(*coordinator, ",") {
			u := strings.TrimSpace(raw)
			if u == "" {
				continue
			}
			backends = append(backends, cluster.NewRemoteBackend(u, u, resilience.Backoff{
				Attempts: *retries + 1,
				Base:     25 * time.Millisecond,
				Cap:      2 * time.Second,
				Jitter:   0.2,
				Seed:     1,
			}))
		}
		coord, err := cluster.NewCoordinator(backends...)
		fatal(err)
		// Background revival re-probe: an idle coordinator (no job traffic
		// to trigger the lazy revive) still notices a restarted worker. The
		// cadence backs off while an outage persists and resets when a node
		// rejoins.
		coord.StartReprobe(jobCtx, resilience.Backoff{
			Attempts: 1,
			Base:     500 * time.Millisecond,
			Cap:      15 * time.Second,
			Jitter:   0.2,
			Seed:     2,
		})
		srv.coord = coord
	}
	hs := &http.Server{Addr: *addr, Handler: srv.handler()}

	errCh := make(chan error, 1)
	go func() {
		mode := ""
		if srv.coord != nil {
			mode = fmt.Sprintf(", coordinator over %d workers", len(srv.coord.Backends()))
		}
		fmt.Fprintf(os.Stderr, "dsed: listening on %s (worker-id=%s, workers=%d, cache=%d, queue=%d%s)\n",
			*addr, *workerID, srv.runner.Pool.Workers(), *cacheSize, *queue, mode)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case <-sigCtx.Done():
		// Graceful shutdown: stop accepting, drain in-flight requests and
		// async jobs, then cancel stragglers so their cancellation
		// checkpoints terminate them.
		fmt.Fprintln(os.Stderr, "dsed: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dsed: shutdown:", err)
		}
		if err := store.Drain(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "dsed: drain expired, cancelling in-flight jobs:", err)
			jobCancel()
			lastCtx, lastCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer lastCancel()
			store.Drain(lastCtx)
		}
		// Close the journal after the drain so every terminal record of the
		// drained jobs lands on disk; cancelled stragglers journal as failed
		// with class "cancelled" and are re-enqueued by the next replay.
		if dm != nil {
			dm.Journal().Close()
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	exit(0)
}

// exit routes every termination through the observability teardown so the
// trace is flushed and the metrics snapshot emitted even on failure.
func exit(code int) {
	ocli.Stop()
	os.Exit(code)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsed:", err)
		exit(1)
	}
}
