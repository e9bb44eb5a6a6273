package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/psioa"
	"repro/internal/sched"
)

// E23InternedCore re-runs the E19/E21 parallel-scaling workload on the
// interned measure core (ROADMAP item 2, closed by this experiment): the
// kernels now expand over dense intern IDs — slice-indexed frontiers, cone
// indexes and halt lists instead of string-keyed maps — and the shared
// bounded memo tables (sorted-support memo, choice caches) moved from
// RWMutex maps to read-mostly snapshots whose steady-state hits take no
// lock. E21 localised the E19 saturation inside the shards, on exactly
// those structures; E23 is the after-measurement on the same workload.
//
// Acceptance is twofold: the interned kernel must stay byte-identical to
// its one-worker run (the baseline row) at every worker count (the
// representation change must not move a single float), and the scaling
// column records what the de-contended shards actually buy on this host
// (single-CPU in CI: the barrier overhead still bounds the curve; the
// per-call wall time against the E19 baseline in EXPERIMENTS.md is the
// honest comparison).
func E23InternedCore() (*Table, error) {
	t := &Table{
		ID:      "E23",
		Title:   "interned measure core: byte-equivalence and scaling on the E19/E21 workload",
		Header:  []string{"workers", "support", "time", "speedup vs 1w", "byte-identical", "memo hits", "memo misses"},
		Workers: 8,
		Kernel:  "parallel",
	}
	w, s, depth := e19Workload()
	var ref string
	var base time.Duration
	ok := true
	for _, workers := range []int{1, 2, 4, 8} {
		memo0 := psioa.SortMemoSnapshot()
		start := time.Now()
		em, err := sched.MeasureOpts(context.Background(), w, s, depth, nil, sched.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		memo1 := psioa.SortMemoSnapshot()
		if workers == 1 {
			base, ref = elapsed, e19Render(em)
		}
		same := e19Render(em) == ref
		ok = ok && same
		speedup := float64(base) / float64(elapsed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(workers), fmt.Sprint(em.Len()), elapsed.Round(time.Microsecond).String(),
			f6(speedup), fmt.Sprint(same),
			fmt.Sprint(memo1.Hits - memo0.Hits), fmt.Sprint(memo1.Misses - memo0.Misses),
		})
	}
	t.Verdict = verdict(ok,
		"interned kernel byte-identical to the one-worker run at every worker count; "+
			"scaling on the de-contended core recorded against the E19 baseline")
	return t, nil
}
