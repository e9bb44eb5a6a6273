package sched_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// renderMeasure renders an execution measure exhaustively — every support
// element with its exact mass, the totals, and every cone — exactly like the
// kernel pins in equivalence_test.go, so "byte-identical" means identical
// renderings down to the last float bit.
func renderMeasure(em *sched.ExecMeasure) string {
	var b strings.Builder
	em.ForEach(func(f *psioa.Frag, p float64) {
		fmt.Fprintf(&b, "E %s %.17g\n", f.Key(), p)
	})
	fmt.Fprintf(&b, "total %.17g len %d maxlen %d\n", em.Total(), em.Len(), em.MaxLen())
	em.ForEachPrefix(func(f *psioa.Frag) {
		fmt.Fprintf(&b, "C %s %.17g\n", f.Key(), em.Cone(f))
	})
	return b.String()
}

func renderDist(d interface {
	SortedSupport() []string
	P(string) float64
	Total() float64
}) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %.17g\n", d.Total())
	for _, k := range d.SortedSupport() {
		fmt.Fprintf(&b, "S %s %.17g\n", k, d.P(k))
	}
	return b.String()
}

// parallelWorkloads enumerates (automaton, scheduler, depth) triples covering
// every built-in scheduler schema over workloads whose frontiers exceed the
// inline threshold, so the sharded path really runs.
func parallelWorkloads() []struct {
	name     string
	a        psioa.PSIOA
	s        sched.Scheduler
	maxDepth int
} {
	w := testaut.RandomWalk("w", 5, 0.5)
	c := psioa.MustCompose(testaut.OpenCoin("x", 0.25), testaut.CoinEnv("x"))
	step, hit := psioa.Action("step_w"), psioa.Action("hit_w")
	return []struct {
		name     string
		a        psioa.PSIOA
		s        sched.Scheduler
		maxDepth int
	}{
		{"greedy/walk", w, &sched.Greedy{A: w, Bound: 9}, 12},
		{"random/walk", w, &sched.Random{A: w, Bound: 8}, 10},
		{"sequence/walk", w, &sched.Sequence{A: w, Acts: []psioa.Action{step, step, step, step, step, step, step, hit}}, 10},
		{"priority/walk", w, &sched.Priority{A: w, Order: []psioa.Action{step, hit}, Bound: 8}, 10},
		{"mix/walk", w, &sched.Mix{
			Weights: []float64{0.5, 0.25},
			Inner:   []sched.Scheduler{&sched.Greedy{A: w, Bound: 8}, &sched.Random{A: w, Bound: 8}},
		}, 10},
		{"bounded(random)/walk", w, &sched.Bounded{Inner: &sched.Random{A: w, Bound: 20}, B: 7}, 10},
		{"random/coins", c, &sched.Random{A: c, Bound: 6, LocalOnly: true}, 8},
		{"greedy/depth0", w, &sched.Greedy{A: w, Bound: 4}, 0},
	}
}

// TestParallelMeasureByteIdentical is the tentpole property: for every
// built-in scheduler schema, depth and worker count, the kernel agrees
// bitwise with the independent string-keyed reference, and its rendering
// does not depend on the worker count.
func TestParallelMeasureByteIdentical(t *testing.T) {
	for _, tc := range parallelWorkloads() {
		ref, err := refExpand(tc.a, tc.s, tc.maxDepth)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			em, err := sched.MeasureOpts(context.Background(), tc.a, tc.s, tc.maxDepth, nil,
				sched.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if msg := diffRef(em, ref); msg != "" {
				t.Errorf("%s workers=%d: diverged from reference: %s", tc.name, workers, msg)
			}
			if got := renderMeasure(em); want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s workers=%d: rendering differs from workers=1", tc.name, workers)
			}
		}
	}
}

// TestParallelSampleImageWorkerInvariant pins the substream design: the
// sampled image distribution is identical for every worker count, and the
// caller's stream advances by exactly one draw regardless of n.
func TestParallelSampleImageWorkerInvariant(t *testing.T) {
	w := testaut.RandomWalk("w", 5, 0.5)
	s := &sched.Random{A: w, Bound: 8}
	traceKey := func(f *psioa.Frag) string { return f.TraceKey(w) }
	var ref string
	for _, workers := range []int{1, 2, 4, 8} {
		st := rng.New(42)
		d, err := sched.SampleImageOpts(context.Background(), w, s, st, 10, 500, traceKey, nil,
			sched.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderDist(d)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("workers=%d: sampled distribution depends on worker count", workers)
		}
	}
	// Stream advancement: SampleImageOpts consumes exactly one draw.
	a, b := rng.New(7), rng.New(7)
	a.Uint64()
	if _, err := sched.SampleImageOpts(context.Background(), w, s, b, 8, 32, traceKey, nil,
		sched.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Error("SampleImageOpts must advance the caller stream by exactly one draw")
	}
}

// TestParallelMeasureBudgetPartial pins graceful degradation under
// parallelism: a budget stop keeps only the fully expanded levels, so the
// partial is an exact sub-probability prefix of ε_σ and identical at every
// worker count.
func TestParallelMeasureBudgetPartial(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 14}
	full, err := sched.Measure(w, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{1, 2, 8} {
		bud := resilience.NewBudget(0, 2000, 0)
		em, err := sched.MeasureOpts(nil, w, s, 20, bud, sched.Options{Workers: workers})
		if !resilience.IsBudget(err) {
			t.Fatalf("workers=%d: err = %v, want budget", workers, err)
		}
		if em == nil {
			t.Fatalf("workers=%d: budget stop should return the partial measure", workers)
		}
		if tot := em.Total(); tot <= 0 || tot >= full.Total() {
			t.Errorf("workers=%d: partial total = %v, want in (0, %v)", workers, tot, full.Total())
		}
		em.ForEach(func(f *psioa.Frag, p float64) {
			if fp := full.P(f); fp != p {
				t.Errorf("workers=%d: partial mass of %v = %v, full measure has %v", workers, f, p, fp)
			}
		})
		if got := renderMeasure(em); want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: partial differs from workers=1", workers)
		}
	}
}

// TestParallelSampleImageNoPartials mirrors the sequential sampler's
// contract: estimates are unbiased only at the full sample count, so any
// interruption returns nil with the classified error.
func TestParallelSampleImageNoPartials(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := &sched.Greedy{A: c, Bound: 5}
	fragKey := func(f *psioa.Frag) string { return f.Key() }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := sched.SampleImageOpts(ctx, c, s, rng.New(1), 10, 5000, fragKey, nil, sched.Options{Workers: 4})
	if d != nil || !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled = (%v, %v), want (nil, ErrCancelled)", d, err)
	}
	d, err = sched.SampleImageOpts(nil, c, s, rng.New(1), 10, 5000, fragKey,
		resilience.NewBudget(100, 0, 0), sched.Options{Workers: 4})
	if d != nil || !resilience.IsBudget(err) {
		t.Fatalf("budgeted = (%v, %v), want (nil, budget)", d, err)
	}
}

// settleGoroutines polls until the goroutine count returns to at most base
// or the deadline passes, absorbing scheduler lag.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: %d running, want <= %d", n, base)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosParallelMeasureCancel cancels the context from inside a scheduler
// choice while the sharded expansion is mid-level: the kernel must return
// the ErrCancelled sentinel with no partial measure and leak no goroutines.
func TestChaosParallelMeasureCancel(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	inner := &sched.Random{A: w, Bound: 12}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &sched.FuncSched{ID: "cancel-at-4", Fn: func(f *psioa.Frag) *sched.Choice {
		if f.Len() == 4 {
			cancel() // fired inside worker goroutines: frontier at depth 4 is 16
		}
		return inner.Choose(f)
	}}
	base := runtime.NumGoroutine()
	em, err := sched.MeasureOpts(ctx, w, s, 16, nil, sched.Options{Workers: 4})
	if !errors.Is(err, resilience.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if em != nil {
		t.Error("cancellation must not return a partial measure")
	}
	settleGoroutines(t, base)
}

// TestChaosParallelMeasurePanic arms the transition.panic fault point once
// the expansion reaches a given depth: the panic must surface as a
// *resilience.PanicError return — engine.Pool.Map's isolation rule —
// instead of crashing the process, and leak no goroutines. The rule holds
// for sharded levels and for levels a single shard expands inline (one
// worker, or a frontier narrower than the sharding threshold).
func TestChaosParallelMeasurePanic(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	inner := &sched.Random{A: w, Bound: 12}
	for _, tc := range []struct {
		name             string
		workers, armedAt int
	}{
		{"workers=4/sharded", 4, 4}, // depth-4 frontier: 16 items, sharded
		{"workers=4/narrow", 4, 1},  // depth-1 frontier: below the threshold, inline
		{"workers=1", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var once sync.Once
			var restore func()
			defer func() {
				if restore != nil {
					restore()
				}
			}()
			s := &sched.FuncSched{ID: "panic", Fn: func(f *psioa.Frag) *sched.Choice {
				if f.Len() == tc.armedAt {
					// Armed mid-level: the next FirePanic call runs inside
					// the shard expanding this frontier.
					once.Do(func() {
						restore = resilience.InstallInjector(
							resilience.NewInjector(1).Arm(resilience.FaultTransitionPanic, 1))
					})
				}
				return inner.Choose(f)
			}}
			base := runtime.NumGoroutine()
			em, err := sched.MeasureOpts(context.Background(), w, s, 16, nil, sched.Options{Workers: tc.workers})
			var pe *resilience.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if resilience.Class(err) != "panic" {
				t.Errorf("Class = %q, want panic", resilience.Class(err))
			}
			if em != nil {
				t.Error("a panicking expansion must not return a measure")
			}
			settleGoroutines(t, base)
		})
	}
}

// TestParallelMeasureRace drives the same parallel expansion from several
// goroutines at once (shared scheduler, shared automaton memos) so the race
// detector can see the full concurrent surface.
func TestParallelMeasureRace(t *testing.T) {
	w := testaut.RandomWalk("w", 5, 0.5)
	s := &sched.Random{A: w, Bound: 8}
	want, err := sched.Measure(w, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			em, err := sched.MeasureOpts(context.Background(), w, s, 10, nil, sched.Options{Workers: 4})
			if err != nil {
				t.Errorf("concurrent MeasureOpts: %v", err)
				return
			}
			if em.Total() != want.Total() || em.Len() != want.Len() {
				t.Error("concurrent MeasureOpts diverged")
			}
		}()
	}
	wg.Wait()
}

// TestMeasureAllocsPerLevel: the tree kernel and its key-ordered view
// allocate per level, not per node. A 16-step walk on 13 positions has 17
// levels and about 2^17 nodes, 65465 of them halted; a heap object per
// node would put the count in the hundreds of thousands.
func TestMeasureAllocsPerLevel(t *testing.T) {
	w := testaut.RandomWalk("w", 12, 0.5)
	s := &sched.Greedy{A: w, Bound: 16}
	for _, workers := range []int{1, 2} {
		var nodes int
		allocs := testing.AllocsPerRun(2, func() {
			em, err := sched.MeasureOpts(context.Background(), w, s, 18, nil, sched.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			nodes = em.Len()
		})
		t.Logf("workers %d: %.0f allocations for %d halted executions", workers, allocs, nodes)
		if nodes != 65465 || allocs > 400 {
			t.Errorf("workers %d: %.0f allocations for %d halted executions, want at most 400 for 65465", workers, allocs, nodes)
		}
	}
}

// TestSampleStateAllocs: a sampled run allocates per call and per shard,
// not per sample or per step. 20,000 samples of a 16-step walk take
// 660,000 draws; the kernel allocated 19 objects at one worker and 27 at
// two when the step table began to carry compiled CDFs, and the bound
// leaves room for a step table the pool dropped in a GC.
func TestSampleStateAllocs(t *testing.T) {
	w := testaut.RandomWalk("w", 12, 0.5)
	s := &sched.Greedy{A: w, Bound: 16}
	fold := func(q psioa.State, _ int) string { return string(q) }
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(2, func() {
			d, err := sched.SampleStateImageOpts(context.Background(), w, s, rng.New(1), 18, 20000, fold, nil, sched.Options{Workers: workers})
			if err != nil || d.Total() < 0.999 {
				t.Fatalf("SampleStateImageOpts: %v, mass %v", err, d.Total())
			}
		})
		t.Logf("workers %d: %.0f allocations", workers, allocs)
		if allocs > 64 {
			t.Errorf("workers %d: %.0f allocations for 20,000 samples, want at most 64", workers, allocs)
		}
	}
}

// TestSharedMeasureConcurrentViews: eight goroutines share one execution
// measure before any of its views exist, and key its fragments while they
// read them. The ordered views and the fragment keys are built lazily by
// whichever reader comes first, so under -race this is the soundness check
// for that sharing; every reader must see exactly what an unshared measure
// shows.
func TestSharedMeasureConcurrentViews(t *testing.T) {
	w := testaut.RandomWalk("cv", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 9}
	ref, err := sched.Measure(w, s, 12)
	if err != nil {
		t.Fatal(err)
	}
	render := func(em *sched.ExecMeasure, cones []*psioa.Frag) string {
		var b strings.Builder
		em.ForEach(func(f *psioa.Frag, p float64) { fmt.Fprintf(&b, "H %s %v\n", f.Key(), p) })
		em.ForEachPrefix(func(f *psioa.Frag) { fmt.Fprintf(&b, "P %s\n", f.Key()) })
		d := em.Dist()
		for _, k := range d.SortedSupport() {
			fmt.Fprintf(&b, "D %s %v\n", k, d.P(k))
		}
		for _, f := range cones {
			fmt.Fprintf(&b, "C %s %v\n", f.Key(), em.Cone(f))
		}
		return b.String()
	}
	// Fragments decoded from keys, not the measure's own views.
	var foreign []*psioa.Frag
	ref.ForEachPrefix(func(f *psioa.Frag) {
		if g, err := psioa.FragFromKey(f.Key()); err == nil && len(foreign) < 64 {
			foreign = append(foreign, g)
		}
	})
	want := render(ref, foreign)

	shared, err := sched.Measure(w, s, 12)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = render(shared, foreign)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != want {
			t.Fatalf("goroutine %d saw a different measure:\n%.300s\nwant\n%.300s", g, got[g], want)
		}
	}
}
