// dsebench runs the reproduction experiment suite E1–E18, E20, E22 (see
// DESIGN.md and EXPERIMENTS.md): each experiment validates one lemma or
// theorem of the paper on calibrated instances and prints a table of
// measured quantities.
//
// Usage:
//
//	dsebench                       # run everything
//	dsebench -only E4              # run one experiment
//	dsebench -workers 4            # fan experiments out on an engine pool
//	dsebench -json BENCH.json      # also emit one JSON object per benchmark
//	dsebench -trace out.jsonl -metrics   # observability (see docs/OBSERVABILITY.md)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
)

var ocli obs.CLI

func main() {
	only := flag.String("only", "", "run a single experiment (E1–E18, E20, E22)")
	workers := flag.Int("workers", 1, "experiment parallelism (engine pool size; 1 = sequential; per-kernel worker counts are recorded in the JSON output)")
	jsonOut := flag.String("json", "", "write machine-readable results (one JSON object per benchmark) to `file` (\"-\" for stdout)")
	timeout := flag.Duration("timeout", 0, "abort after this wall-clock time (0 = no limit)")
	budget := flag.Int64("budget", 0, "kernel transition budget before stopping (0 = unlimited)")
	ocli.Register(flag.CommandLine)
	flag.Parse()
	if err := ocli.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "dsebench:", err)
		exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *budget > 0 || *timeout > 0 {
		// Experiment kernels do not all receive the context, so the process
		// default budget is what propagates the limits into their
		// cancellation checkpoints.
		resilience.SetDefaultBudget(resilience.NewBudget(0, *budget, *timeout))
	}

	_, runs := experiments.Runners()

	if *only != "" {
		run, ok := runs[strings.ToUpper(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "dsebench: unknown experiment %q\n", *only)
			exit(2)
		}
		t, err := run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsebench:", err)
			exit(1)
		}
		fmt.Println(t)
		emitJSON(*jsonOut, []*experiments.Table{t})
		if !t.Pass() {
			exit(1)
		}
		exit(0)
	}

	start := time.Now()
	tables, err := experiments.AllParallel(ctx, engine.NewPool(*workers))
	for _, t := range tables {
		fmt.Println(t)
	}
	emitJSON(*jsonOut, tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsebench:", err)
		exit(1)
	}
	fmt.Printf("all experiments completed in %s\n", time.Since(start).Round(time.Millisecond))
	for _, t := range tables {
		if !t.Pass() {
			fmt.Fprintf(os.Stderr, "dsebench: %s failed\n", t.ID)
			exit(1)
		}
	}
	exit(0)
}

// emitJSON writes one JSON object per benchmark table, for tracking the
// perf trajectory across revisions (BENCH_*.json files).
func emitJSON(path string, tables []*experiments.Table) {
	if path == "" {
		return
	}
	var out io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsebench:", err)
			exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	for _, t := range tables {
		if err := enc.Encode(t.Result()); err != nil {
			fmt.Fprintln(os.Stderr, "dsebench:", err)
			exit(1)
		}
	}
	if err := enc.Encode(telemetryLine()); err != nil {
		fmt.Fprintln(os.Stderr, "dsebench:", err)
		exit(1)
	}
}

// telemetryLine is the trailing process-level run-report line of the -json
// output: cumulative kernel/cache/memo telemetry across the whole suite.
// It deliberately has no "elapsed_us" field, so scripts/bench_compare.sh
// (which keys benchmark rows on "id" + "elapsed_us") skips it.
func telemetryLine() map[string]any {
	snap := obs.Default.Snapshot()
	memo := psioa.SortMemoSnapshot()
	rr := map[string]any{
		"cache_hits":      snap.Counters["engine.cache.hits"],
		"cache_misses":    snap.Counters["engine.cache.misses"],
		"cache_evictions": snap.Counters["engine.cache.evictions"],
		"sort_memo":       memo,
		"pool_tasks":      snap.Counters["engine.pool.tasks"],
		"pool_busy_max":   snap.Gauges["engine.pool.busy.max"],
	}
	if tot := snap.Counters["engine.cache.hits"] + snap.Counters["engine.cache.misses"]; tot > 0 {
		rr["cache_hit_ratio"] = float64(snap.Counters["engine.cache.hits"]) / float64(tot)
	}
	phases := map[string]string{
		"measure_us":     "sched.measure.us",
		"measure_dag_us": "sched.measure.dag.us",
		"sample_par_us":  "sched.sample.par.us",
	}
	for key, hist := range phases {
		if h, ok := snap.Histograms[hist]; ok && h.Count > 0 {
			rr[key] = h
		}
	}
	return map[string]any{"id": "telemetry", "run_report": rr}
}

// exit routes every termination through the observability teardown so the
// trace is flushed and the metrics snapshot emitted even on failure.
func exit(code int) {
	ocli.Stop()
	os.Exit(code)
}
