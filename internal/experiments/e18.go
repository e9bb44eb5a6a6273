package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/protocols/channel"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// Every leak but 0 gives non-dyadic masses, whose f-dists take the tree.
var e18Leaks = []float64{0, 0.1, 0.3, 0.6}

// e18Sweep runs the E8 secure-emulation check (leaky one-time-pad channel
// vs ideal channel) across a leak sweep under the given base options — the
// heaviest kernel in the suite. The ideal side's masses are dyadic, so its
// f-dists are answered on the state-collapsed DAG and never reach the
// cache; the leaky side's take the tree route, which a warm cache serves.
func e18Sweep(opt core.Options) ([]*core.EmulationReport, error) {
	opt.Envs = []psioa.PSIOA{channel.Env("x", 0), channel.Env("x", 1)}
	opt.Schema = &sched.PrefixPrioritySchema{Templates: [][]string{
		{"send", "encrypt", "tap", "notify", "fabricate", "g_tap", "guess", "deliver"},
		{"send", "encrypt", "tap", "notify", "fabricate", "g_tap", "g_block", "block", "guess", "deliver"},
		{"send", "encrypt", "tap", "notify", "deliver"},
	}}
	opt.Insight = insight.Trace()
	opt.Q1, opt.Q2 = 8, 8
	out := make([]*core.EmulationReport, 0, len(e18Leaks))
	for _, leak := range e18Leaks {
		o := opt
		o.Eps = leak / 2
		rep, err := core.SecureEmulates(
			channel.LeakyReal("x", leak), channel.Ideal("x"),
			[]core.AdvSim{{Adv: channel.Eavesdropper("x"), Sim: channel.SimFor("x")}},
			o, 50000)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

func e18Pairs(reps []*core.EmulationReport) int {
	n := 0
	for _, rep := range reps {
		for _, r := range rep.PerAdv {
			n += len(r.Pairs)
		}
	}
	return n
}

func e18Render(reps []*core.EmulationReport) string {
	var b []byte
	for _, rep := range reps {
		b = append(b, rep.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

func e18Holds(reps []*core.EmulationReport) bool {
	for _, rep := range reps {
		if !rep.Holds {
			return false
		}
	}
	return true
}

// E18EngineEquivalence validates the engine layer: fanning the (env,
// scheduler) sweeps of a secure-emulation leak sweep onto a worker pool and
// memoizing their tree-route answers must leave every report byte-identical
// to the sequential, uncached run, and a warm cache must serve every
// f-dist that reaches it. The sweep's timing columns are informational: its
// automata are small enough that the fingerprint's state-graph exploration
// rivals the measure expansions it saves. A final stress pair shows the
// regime the cache is built for — repeated f-dists of a deep random walk
// whose masses are not dyadic and whose execution tree dwarfs its state
// graph — where the warm cache must beat the uncached loop outright. The
// verdict requires identical reports, no warm-mode cache miss, and stress
// speedup > 1.
func E18EngineEquivalence() (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "engine pool + memoization preserve reports and reuse answers (Def 4.12 sweep)",
		Header: []string{"mode", "workers", "elapsed", "pairs", "cache hits", "identical", "speedup"},
	}

	seqStart := time.Now()
	seqReps, err := e18Sweep(core.Options{})
	if err != nil {
		return nil, err
	}
	seqElapsed := time.Since(seqStart)
	seqStr := e18Render(seqReps)
	t.Rows = append(t.Rows, []string{
		"sequential", "1", seqElapsed.Round(time.Millisecond).String(),
		fmt.Sprint(e18Pairs(seqReps)), "0", "—", "1.00x",
	})

	pool := engine.NewPool(8)
	memoCache := engine.NewCache(0)
	pooledCache := engine.NewCache(0)
	// Each mode counts its own cache's traffic (Cache.Totals), so the
	// experiments that run beside it on a pool do not move its counts.
	modes := []struct {
		name  string
		cache *engine.Cache
		opt   core.Options
	}{
		{"memoized-cold", memoCache, core.Options{Memo: memoCache}},
		{"memoized-warm", memoCache, core.Options{Memo: memoCache}},
		{"pooled-cold", pooledCache, core.Options{Exec: pool, Memo: pooledCache}},
		{"pooled-warm", pooledCache, core.Options{Exec: pool, Memo: pooledCache}},
	}
	identical := true
	hits, misses := map[string]int64{}, map[string]int64{}
	for _, m := range modes {
		h0, m0, _, _ := m.cache.Totals()
		start := time.Now()
		reps, err := e18Sweep(m.opt)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		h1, m1, _, _ := m.cache.Totals()
		hits[m.name], misses[m.name] = h1-h0, m1-m0
		same := e18Render(reps) == seqStr
		identical = identical && same
		workers := 1
		if m.opt.Exec != nil {
			workers = pool.Workers()
		}
		speedup := "—"
		if elapsed > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(seqElapsed)/float64(elapsed))
		}
		t.Rows = append(t.Rows, []string{
			m.name, fmt.Sprint(workers), elapsed.Round(time.Millisecond).String(),
			fmt.Sprint(e18Pairs(reps)), fmt.Sprint(hits[m.name]), fmt.Sprint(same), speedup,
		})
	}

	// Stress pair: repeated f-dists of a deep random walk, where the
	// execution tree (exponential in depth) dwarfs the state graph the
	// fingerprint explores — the regime the cache is built for. Its 0.3
	// steps are not dyadic, so the tree answers it.
	walk := testaut.RandomWalk("w", 10, 0.3)
	wsched := &sched.Greedy{A: walk, Bound: 14, LocalOnly: true}
	const stressReps = 10
	stressStart := time.Now()
	for i := 0; i < stressReps; i++ {
		if _, err := insight.FDist(walk, wsched, insight.Trace(), 16); err != nil {
			return nil, err
		}
	}
	stressSeq := time.Since(stressStart)
	t.Rows = append(t.Rows, []string{
		"stress-uncached", "1", stressSeq.Round(time.Millisecond).String(),
		fmt.Sprint(stressReps), "0", "—", "1.00x",
	})
	stressCache := engine.NewCache(0)
	stressStart = time.Now()
	for i := 0; i < stressReps; i++ {
		if _, err := stressCache.FDist(walk, wsched, insight.Trace(), 16); err != nil {
			return nil, err
		}
	}
	stressMemo := time.Since(stressStart)
	stressSpeedup := float64(stressSeq) / float64(stressMemo)
	t.Rows = append(t.Rows, []string{
		"stress-memoized", "1", stressMemo.Round(time.Millisecond).String(),
		fmt.Sprint(stressReps), fmt.Sprint(stressReps - 1), "—",
		fmt.Sprintf("%.2fx", stressSpeedup),
	})

	warmMisses := misses["memoized-warm"] + misses["pooled-warm"]
	ok := identical && e18Holds(seqReps) && stressSpeedup > 1 && warmMisses == 0
	t.Verdict = verdict(ok, fmt.Sprintf("reports identical=%v, cache hits cold=%d warm=%d, warm misses %d, stress speedup %.1fx",
		identical, hits["memoized-cold"], hits["memoized-warm"], warmMisses, stressSpeedup))
	return t, nil
}

// AllParallel runs every experiment on the pool, preserving All's output
// order. Experiments touch disjoint instances, so running them as pool
// tasks is safe; each experiment's internal sweeps additionally share the
// pool when they construct engine-backed options themselves. A nil pool
// degrades to the sequential All.
func AllParallel(ctx context.Context, pool *engine.Pool) ([]*Table, error) {
	ids, byID := Runners()
	out := make([]*Table, len(ids))
	err := pool.Map(ctx, len(ids), func(i int) error {
		// Collect before each timed experiment so its elapsed time matches
		// an isolated run: leftover garbage would be collected on this
		// experiment's clock. Per-experiment timings feed BENCH_*.json and
		// bench_compare.sh, which flags >20% drifts, so they must not
		// depend on suite ordering.
		runtime.GC()
		tbl, err := byID[ids[i]]()
		out[i] = tbl
		return err
	})
	tables := make([]*Table, 0, len(out))
	for _, tbl := range out {
		if tbl != nil {
			tables = append(tables, tbl)
		}
	}
	return tables, err
}
