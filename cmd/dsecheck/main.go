// dsecheck decides approximate implementation (Def 4.12) between two
// systems: for every scheduler of the schema on env‖left it searches a
// balanced scheduler on env‖right. The check runs on the engine's worker
// pool with memoized f-dist images; -workers 1 -cache 0 reproduces the
// plain sequential run (the report is byte-identical either way).
//
// Usage:
//
//	dsecheck -left coin:leaky:x:4 -right coin:fair:x -env coin:env:x \
//	         -eps 0.0625 -q1 3
//	dsecheck -left chan:leaky:x:0.5 -right chan:ideal:x \
//	         -env chan:env:x:0 -env chan:env:x:1 \
//	         -schema priority -tmpl send,encrypt,tap,notify,fabricate,deliver \
//	         -eps 0.25 -q1 8 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

var ocli obs.CLI

func main() {
	left := flag.String("left", "", "left (implementing) system reference")
	right := flag.String("right", "", "right (specification) system reference")
	var envs, tmpls multiFlag
	flag.Var(&envs, "env", "environment reference (repeatable)")
	flag.Var(&tmpls, "tmpl", "priority template, comma-separated prefixes (repeatable; priority schema)")
	schemaName := flag.String("schema", "oblivious", "scheduler schema: oblivious | priority | basic")
	eps := flag.Float64("eps", 0, "tolerance ε")
	q1 := flag.Int("q1", 3, "left scheduler bound")
	q2 := flag.Int("q2", 0, "right scheduler bound (default q1)")
	workers := flag.Int("workers", 0, "worker pool size for jobs and the parallel measure kernels (0 = GOMAXPROCS, 1 = sequential)")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "memoization cache entries (0 = default)")
	clusterURL := flag.String("cluster", "", "run the check on a dsed cluster: URL of the coordinator (or a single worker)")
	verbose := flag.Bool("v", false, "print every (environment, scheduler) pair")
	explain := flag.Bool("explain", false, "print the per-job run report (work counters, shard balance, cache hit ratio, phase walls)")
	timeout := flag.Duration("timeout", 0, "abort after this wall-clock time (0 = no limit)")
	budget := flag.Int64("budget", 0, "kernel transition budget before stopping (0 = unlimited)")
	ocli.Register(flag.CommandLine)
	flag.Parse()
	fatal(ocli.Start())

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *budget > 0 || *timeout > 0 {
		// The default budget makes the kernels' cancellation checkpoints
		// enforce the limits even where a context is not threaded through.
		resilience.SetDefaultBudget(resilience.NewBudget(0, *budget, *timeout))
	}

	if *left == "" || *right == "" || len(envs) == 0 {
		fmt.Fprintln(os.Stderr, "dsecheck: need -left, -right and at least one -env")
		exit(2)
	}
	var templates [][]string
	for _, t := range tmpls {
		templates = append(templates, strings.Split(t, ","))
	}
	if *schemaName == "priority" && len(templates) == 0 {
		fmt.Fprintln(os.Stderr, "dsecheck: priority schema needs at least one -tmpl")
		exit(2)
	}
	schema, err := engine.SchemaByName(*schemaName, templates)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsecheck: unknown schema %q\n", *schemaName)
		exit(2)
	}

	job := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left:      *left,
		Right:     *right,
		Envs:      envs,
		Schema:    *schemaName,
		Templates: templates,
		Eps:       *eps,
		Q1:        *q1,
		Q2:        *q2,
	}}
	if *timeout > 0 {
		job.TimeoutMS = timeout.Milliseconds()
	}
	var res *engine.Result
	if *clusterURL != "" {
		// Remote mode: ship the job to a dsed coordinator (or plain
		// worker) instead of computing locally. The report it returns is
		// byte-identical to the local run (docs/CLUSTER.md).
		backend := cluster.NewRemoteBackend(*clusterURL, *clusterURL, resilience.Backoff{
			Attempts: 3, Base: 25 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.2, Seed: 1,
		})
		res, err = backend.Run(ctx, job)
	} else {
		r := engine.NewRunner(engine.NewPool(*workers), engine.NewCache(*cacheSize))
		res, err = r.Run(ctx, job)
	}
	fatal(err)
	rep := res.Check
	if rep == nil {
		fatal(fmt.Errorf("no check report in result"))
	}

	fmt.Printf("%s ≤_{%g} %s [schema %s, q1=%d]: %v\n", *left, *eps, *right, schema.Name(), *q1, rep.Holds)
	fmt.Printf("  pairs checked: %d, measured max distance: %.6g\n", len(rep.Pairs), rep.MaxDist)
	if *verbose {
		for _, p := range rep.Pairs {
			status := "ok"
			if !p.OK {
				status = "FAIL"
			}
			fmt.Printf("  [%s] env=%s sched=%s dist=%.6g matched=%s\n", status, p.Env, p.Sched, p.Dist, p.Matched)
		}
	} else {
		for _, p := range rep.Failures() {
			fmt.Printf("  FAIL env=%s sched=%s dist=%.6g\n", p.Env, p.Sched, p.Dist)
		}
	}
	if *explain && res.Report != nil {
		fmt.Print(res.Report.String())
		if *clusterURL == "" {
			// The sort memo is process-wide, so only a local run's
			// snapshot describes this job.
			m := psioa.SortMemoSnapshot()
			fmt.Printf("  sort memo   hits=%d misses=%d resets=%d entries=%d (process)\n",
				m.Hits, m.Misses, m.Resets, m.Entries)
		}
	}
	if !rep.Holds {
		exit(1)
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
		fmt.Fprintln(os.Stderr, "dsecheck:", err)
		exit(1)
	}
}
