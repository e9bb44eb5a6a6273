// dsesim simulates automata under schedulers: it composes the referenced
// systems, resolves non-determinism with the chosen scheduler, and prints
// either the exact execution measure or Monte-Carlo trace estimates. Exact
// runs go through the engine's memoization cache, so repeated tree-route
// invocations inside one process (and the dsed daemon serving the same
// request) reuse the answer; a dyadic run answers from one DAG pass.
//
// Usage:
//
//	dsesim -sys chan:real:x -sys chan:env:x:1 -sched priority \
//	       -order send,encrypt,tap,deliver -bound 8
//	dsesim -sys coin:fair:x -sys coin:env:x -sched random -bound 4 -samples 10000
//
// System references are JSON spec paths or built-in names (see
// internal/spec). With -samples > 0 the tool samples instead of computing
// the exact measure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/resilience"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

var ocli obs.CLI

func main() {
	var systems multiFlag
	flag.Var(&systems, "sys", "system reference (repeatable; composed in order)")
	schedName := flag.String("sched", "greedy", "scheduler: greedy | random | priority | sequence")
	order := flag.String("order", "", "comma-separated action prefixes (priority) or actions (sequence)")
	bound := flag.Int("bound", 10, "scheduler bound (Def 4.6)")
	samples := flag.Int("samples", 0, "Monte-Carlo samples (0 = exact measure)")
	seed := flag.Uint64("seed", 1, "random seed for sampling")
	insightName := flag.String("insight", "trace", "insight: trace | final | accept:<action> | print:<prefix>")
	maxShow := flag.Int("show", 20, "max entries to print")
	timeout := flag.Duration("timeout", 0, "abort after this wall-clock time (0 = no limit)")
	budget := flag.Int64("budget", 0, "kernel transition budget before stopping (0 = unlimited)")
	workers := flag.Int("workers", 0, "measure/sampling kernel workers (0 = GOMAXPROCS, 1 = sequential)")
	ocli.Register(flag.CommandLine)
	flag.Parse()
	fatal(ocli.Start())

	ctx, cancel := resilience.CLILimits(*timeout, *budget)
	defer cancel()

	if len(systems) == 0 {
		fmt.Fprintln(os.Stderr, "dsesim: need at least one -sys")
		exit(2)
	}
	var orderList []string
	if *order != "" {
		orderList = strings.Split(*order, ",")
	}

	// The pool sizes the parallel measure kernels (results are byte-identical
	// at any worker count, so -workers only affects wall clock).
	r := engine.NewRunner(engine.NewPool(*workers), engine.NewCache(0))
	res, err := r.Simulate(ctx, &engine.SimulateSpec{
		Systems: systems,
		Sched:   *schedName,
		Order:   orderList,
		Bound:   *bound,
		Samples: *samples,
		Seed:    *seed,
		Insight: *insightName,
	})
	fatal(err)

	if res.Partial {
		fmt.Printf("PARTIAL result (budget exhausted: %s)\n", res.Degraded)
	}
	if res.Exact {
		fmt.Printf("exact execution measure: %d executions, total mass %.6f, max length %d\n",
			res.Executions, res.TotalMass, res.MaxLen)
		fmt.Printf("%s distribution (%d outcomes):\n", res.InsightID, len(res.Outcomes))
	} else {
		fmt.Printf("sampled %s distribution over %d runs (%d outcomes):\n",
			res.InsightID, res.Executions, len(res.Outcomes))
	}
	printDist(res.Outcomes, *maxShow)
	exit(0)
}

// exit routes every termination through the observability teardown so the
// trace is flushed and the metrics snapshot emitted even on failure.
func exit(code int) {
	ocli.Stop()
	os.Exit(code)
}

func printDist(entries []engine.SimOutcome, maxShow int) {
	for i, e := range entries {
		if i >= maxShow {
			fmt.Printf("  ... (%d more)\n", len(entries)-maxShow)
			return
		}
		k := e.Key
		if k == "()" || k == "" {
			k = "(empty)"
		}
		fmt.Printf("  %8.5f  %s\n", e.P, k)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsesim:", err)
		exit(1)
	}
}
