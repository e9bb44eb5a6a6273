package sched_test

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// Depth-oblivious schedulers run every kernel through a step table, or
// (in the tree kernel's levels that repeat no state) through the same
// step compilation without one. These tests hold both routes to the
// untabled one: wrapping the same scheduler in a FuncSched hides its
// DepthOblivious capability, so the kernels fall back to Choose and Trans
// per step.

// untabled hides s's DepthOblivious capability.
func untabled(s sched.Scheduler) sched.Scheduler {
	return &sched.FuncSched{ID: s.Name(), Fn: s.Choose}
}

// faultySched answers bad at one (state, depth) and defers to its inner
// scheduler elsewhere, so validation errors arise at several frontier
// indices and the lowest one must win on both routes.
type faultySched struct {
	sched.DepthOblivious
	q     psioa.State
	depth int
	bad   *sched.Choice
}

func (f *faultySched) Choose(alpha *psioa.Frag) *sched.Choice {
	return f.ChooseAt(alpha.LState(), alpha.Len())
}

func (f *faultySched) ChooseAt(q psioa.State, depth int) *sched.Choice {
	if q == f.q && depth == f.depth {
		return f.bad
	}
	return f.DepthOblivious.ChooseAt(q, depth)
}

type stepCase struct {
	name     string
	a        psioa.PSIOA
	s        sched.DepthOblivious
	maxDepth int
}

// stepCases builds the differential workloads on one random automaton
// (intern_equiv_test.go's) and one adversarially named one
// (testaut.AdversarialAut): every built-in schema, a Bounded wrapper, a
// scheduler reading another automaton's signatures, schedulers that go
// over mass or choose a disabled action at one (state, depth), and one
// that schedules past maxDepth.
func stepCases(t *testing.T, seed uint64) []stepCase {
	t.Helper()
	var out []stepCase
	for _, a := range []*psioa.Table{randomAut(seed), adversarialAut(seed)} {
		acts := psioa.SortedAll(a.Sig(a.Start()))
		if len(acts) == 0 {
			continue
		}
		base := []sched.Scheduler{
			&sched.Greedy{A: a, Bound: 5},
			&sched.Random{A: a, Bound: 5},
			&sched.Random{A: a, Bound: 5, LocalOnly: true},
			&sched.Priority{A: a, Bound: 5, Order: []psioa.Action{"a2_r", "a0_r", "x1", "|"}},
			&sched.Sequence{A: a, Acts: []psioa.Action{acts[0], acts[0], acts[len(acts)-1]}},
			&sched.Bounded{Inner: &sched.Random{A: a, Bound: 9}, B: 4},
		}
		if a.ID() == "r" {
			// Random automata share state names, so a scheduler reading
			// another one's signatures chooses disabled actions.
			base = append(base, &sched.Random{A: randomAut(seed + 1000), Bound: 4})
		}
		for _, s := range base {
			dob, ok := sched.AsDepthOblivious(s)
			if !ok {
				t.Fatalf("%s is not depth-oblivious", s.Name())
			}
			out = append(out, stepCase{fmt.Sprintf("%s/%s", a.ID(), s.Name()), a, dob, 7})
		}
		// Faults at a state the Random scheduler reaches at depth 2.
		rnd, _ := sched.AsDepthOblivious(&sched.Random{A: a, Bound: 5})
		em, err := sched.Measure(a, rnd, 7)
		if err != nil {
			t.Fatalf("%s: %v", a.ID(), err)
		}
		var q psioa.State
		found := false
		em.ForEachPrefix(func(f *psioa.Frag) {
			if !found && f.Len() == 2 {
				q, found = f.LState(), true
			}
		})
		if found {
			over := measure.New[psioa.Action]()
			over.Add(acts[0], 0.75)
			over.Add("no such action", 0.75)
			disabled := measure.Dirac[psioa.Action]("no such action")
			out = append(out,
				stepCase{a.ID() + "/overmass", a, &faultySched{rnd, q, 2, over}, 7},
				stepCase{a.ID() + "/disabled", a, &faultySched{rnd, q, 2, disabled}, 7})
		}
		out = append(out, stepCase{a.ID() + "/depth", a, rnd, 3})
	}
	return out
}

// outcome renders a kernel result or its error for comparison.
func outcome(render func() string, err error, workers int) string {
	if err == nil {
		return render()
	}
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		return "panic: " + pe.Value
	}
	return "error: " + errText(err, workers)
}

// budgetSpent matches the spend counts and wall time a budget error ends with.
var budgetSpent = regexp.MustCompile(`after .*$`)

// errText is err's text without a budget error's elapsed time. Shards
// share one budget, so above one worker the spend the error reports
// depends on their interleaving and only its kind is compared.
func errText(err error, workers int) string {
	if !resilience.IsBudget(err) {
		return fmt.Sprint(err)
	}
	if workers > 1 {
		return budgetSpent.ReplaceAllString(err.Error(), "")
	}
	i := strings.LastIndex(err.Error(), ", ")
	return err.Error()[:i]
}

// TestStepTableMatchesUntabled: on random and adversarially named
// automata, at workers 1, 2 and 8, the table route and the untabled route
// give identical exact measures (every view), identical budget-stopped
// partials, identical errors from the lowest frontier index, and
// identical sampled estimates; the DAG kernel matches the string-keyed
// reference propagation, and folding samples to their final state
// matches sampling fragments.
func TestStepTableMatchesUntabled(t *testing.T) {
	ctx := context.Background()
	classes := []error{sched.ErrOverMass, sched.ErrDisabledAction, sched.ErrDepthExceeded}
	errs := make([]int, len(classes))
	partials, tabled, inPlace := 0, 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, c := range stepCases(t, seed) {
			plain := untabled(c.s)
			for _, w := range []int{1, 2, 8} {
				o := sched.Options{Workers: w}
				where := fmt.Sprintf("seed %d %s workers %d", seed, c.name, w)

				fills := obs.C("sched.step.fills").Value()
				got, gerr := sched.MeasureOpts(ctx, c.a, c.s, c.maxDepth, nil, o)
				if obs.C("sched.step.fills").Value() != fills {
					tabled++
				} else {
					inPlace++
				}
				want, werr := sched.MeasureOpts(ctx, c.a, plain, c.maxDepth, nil, o)
				g, wt := outcome(func() string { return renderMeasure(got) }, gerr, w), outcome(func() string { return renderMeasure(want) }, werr, w)
				if g != wt {
					t.Fatalf("%s: measure differs:\ntable:    %.300s\nuntabled: %.300s", where, g, wt)
				}
				for i, sentinel := range classes {
					if errors.Is(werr, sentinel) {
						errs[i]++
					}
				}

				got, gerr = sched.MeasureOpts(ctx, c.a, c.s, c.maxDepth, resilience.NewBudget(120, 0, 0), o)
				want, werr = sched.MeasureOpts(ctx, c.a, plain, c.maxDepth, resilience.NewBudget(120, 0, 0), o)
				if (got == nil) != (want == nil) || errText(gerr, w) != errText(werr, w) {
					t.Fatalf("%s: budget stop differs: %v / %v", where, gerr, werr)
				}
				if want != nil && werr != nil {
					partials++
					if g, wt := renderMeasure(got), renderMeasure(want); g != wt {
						t.Fatalf("%s: budget partial differs:\ntable:    %.300s\nuntabled: %.300s", where, g, wt)
					}
				}

				key := func(f *psioa.Frag) string { return f.Key() }
				gd, gerr := sched.SampleImageOpts(ctx, c.a, c.s, rng.New(seed), c.maxDepth, 300, key, nil, o)
				wd, werr := sched.SampleImageOpts(ctx, c.a, plain, rng.New(seed), c.maxDepth, 300, key, nil, o)
				g, wt = outcome(func() string { return renderDist(gd) }, gerr, w), outcome(func() string { return renderDist(wd) }, werr, w)
				if g != wt {
					t.Fatalf("%s: sampled estimate differs:\ntable:    %.300s\nuntabled: %.300s", where, g, wt)
				}
				last := func(f *psioa.Frag) string { return string(f.LState()) }
				fd, ferr := sched.SampleStateImageOpts(ctx, c.a, c.s, rng.New(seed), c.maxDepth, 300,
					func(q psioa.State, _ int) string { return string(q) }, nil, o)
				ld, lerr := sched.SampleImageOpts(ctx, c.a, plain, rng.New(seed), c.maxDepth, 300, last, nil, o)
				if g, wt := outcome(func() string { return renderDist(fd) }, ferr, w), outcome(func() string { return renderDist(ld) }, lerr, w); g != wt {
					t.Fatalf("%s: folded estimate differs:\nfold:     %.300s\nuntabled: %.300s", where, g, wt)
				}
				gd, gerr = sched.SampleImageOpts(ctx, c.a, c.s, rng.New(seed), c.maxDepth, 300, key, resilience.NewBudget(200, 0, 0), o)
				wd, werr = sched.SampleImageOpts(ctx, c.a, plain, rng.New(seed), c.maxDepth, 300, key, resilience.NewBudget(200, 0, 0), o)
				if g, wt := outcome(func() string { return renderDist(gd) }, gerr, w), outcome(func() string { return renderDist(wd) }, werr, w); g != wt {
					t.Fatalf("%s: budgeted sampling differs: %.200s / %.200s", where, g, wt)
				}
			}

			if out := serialSampleOutcome(c.a, c.s, seed, c.maxDepth); out != serialSampleOutcome(c.a, plain, seed, c.maxDepth) {
				t.Fatalf("seed %d %s: serial SampleImage differs", seed, c.name)
			}

			// The DAG's errors name a state, not a fragment: compare their
			// class with the untabled tree kernel's.
			dm, derr := sched.MeasureDAGOpts(ctx, c.a, c.s, c.maxDepth, nil, sched.Options{})
			_, terr := sched.MeasureOpts(ctx, c.a, plain, c.maxDepth, nil, sched.Options{})
			if (derr == nil) != (terr == nil) {
				t.Fatalf("seed %d %s: DAG error %v, tree error %v", seed, c.name, derr, terr)
			}
			for _, sentinel := range classes {
				if errors.Is(derr, sentinel) != errors.Is(terr, sentinel) {
					t.Fatalf("seed %d %s: DAG error %v and tree error %v differ in class", seed, c.name, derr, terr)
				}
			}
			if derr != nil {
				continue
			}
			refHalts, refTotal, err := refDAG(c.a, c.s, c.maxDepth)
			if err != nil {
				t.Fatalf("seed %d %s: reference DAG: %v", seed, c.name, err)
			}
			if dm.Total() != refTotal || dm.Classes() != len(refHalts) {
				t.Fatalf("seed %d %s: DAG total %v classes %d, reference %v / %d", seed, c.name, dm.Total(), dm.Classes(), refTotal, len(refHalts))
			}
			i := 0
			dm.ForEach(func(q psioa.State, depth int, p float64) {
				if h := refHalts[i]; q != h[0].(psioa.State) || depth != h[1].(int) || p != h[2].(float64) {
					t.Fatalf("seed %d %s: DAG class %d (%q,%d,%v) != reference %v", seed, c.name, i, q, depth, p, h)
				}
				i++
			})
		}
	}
	if slices.Contains(errs, 0) || partials == 0 || tabled == 0 || inPlace == 0 {
		t.Fatalf("coverage: %v over-mass/disabled/depth errors, %d budget partials, %d tree measures through a table, %d compiled in place; want all > 0",
			errs, partials, tabled, inPlace)
	}
}

func serialSampleOutcome(a psioa.PSIOA, s sched.Scheduler, seed uint64, maxDepth int) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	d, err := sched.SampleImage(a, s, rng.New(seed), maxDepth, 200, func(f *psioa.Frag) string { return f.Key() })
	return outcome(func() string { return renderDist(d) }, err, 1)
}

// countingAut counts Sig and Trans calls per state and per (state,
// action). Schedulers are built over the wrapper, so their own signature
// reads count too.
type countingAut struct {
	psioa.PSIOA
	mu    sync.Mutex
	sigs  map[psioa.State]int
	trans map[[2]string]int
}

func (c *countingAut) Sig(q psioa.State) psioa.Signature {
	c.mu.Lock()
	c.sigs[q]++
	c.mu.Unlock()
	return c.PSIOA.Sig(q)
}

func (c *countingAut) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	c.mu.Lock()
	c.trans[[2]string{string(q), string(a)}]++
	c.mu.Unlock()
	return c.PSIOA.Trans(q, a)
}

func (c *countingAut) reset() {
	c.sigs, c.trans = map[psioa.State]int{}, map[[2]string]int{}
}

// TestMeasureTablesRepeatingLevels: the tree kernel compiles the steps of
// a level whose items end in distinct states in place, and reads a step
// table only from the first level that may repeat a state. A chain of
// one-item levels fills no table. A three-step random walk, which is back
// at its start state twice at depth 2, does; its widest level, at depth
// 3, only halts, so the fills come from depth 2. Both match the untabled
// route.
func TestMeasureTablesRepeatingLevels(t *testing.T) {
	counter := testaut.Counter("c", 4)
	walk := testaut.RandomWalk("w", 6, 0.5)
	for _, tc := range []struct {
		name  string
		a     psioa.PSIOA
		s     sched.Scheduler
		fills bool
	}{
		{"chain", counter, &sched.Sequence{A: counter, Acts: []psioa.Action{"tick", "tick", "tick", "tick", "tick"}}, false},
		{"walk", walk, &sched.Greedy{A: walk, Bound: 3, LocalOnly: true}, true},
	} {
		for _, w := range []int{1, 2, 8} {
			o := sched.Options{Workers: w}
			before := obs.C("sched.step.fills").Value()
			got, err := sched.MeasureOpts(context.Background(), tc.a, tc.s, 8, nil, o)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, w, err)
			}
			if filled := obs.C("sched.step.fills").Value() != before; filled != tc.fills {
				t.Errorf("%s workers %d: table filled = %v, want %v", tc.name, w, filled, tc.fills)
			}
			want, err := sched.MeasureOpts(context.Background(), tc.a, untabled(tc.s), 8, nil, o)
			if err != nil {
				t.Fatalf("%s workers %d untabled: %v", tc.name, w, err)
			}
			if g, wt := renderMeasure(got), renderMeasure(want); g != wt {
				t.Fatalf("%s workers %d: measure differs:\ntable:    %.300s\nuntabled: %.300s", tc.name, w, g, wt)
			}
		}
	}
}

// TestStepTableCallCounts: within one kernel call, at workers 1, 2 and 8,
// the automaton's signature is read at most once per (state, depth) the
// call visits and each transition at most once per (state, depth, action),
// on every kernel that reads the step table — where before every sampled
// step read both. sched.step.fills counts the compiled steps.
func TestStepTableCallCounts(t *testing.T) {
	walk := testaut.RandomWalk("w", 6, 0.5)
	coins := psioa.MustCompose(testaut.Coin("c0", 0.5), testaut.Coin("c1", 0.25))
	for _, tc := range []struct {
		name     string
		raw      psioa.PSIOA
		mk       func(a psioa.PSIOA) sched.Scheduler
		maxDepth int
	}{
		{"walk/greedy", walk, func(a psioa.PSIOA) sched.Scheduler { return &sched.Greedy{A: a, Bound: 10, LocalOnly: true} }, 12},
		{"coins/random", coins, func(a psioa.PSIOA) sched.Scheduler { return &sched.Random{A: a, Bound: 6, LocalOnly: true} }, 8},
	} {
		// The (state, depth) pairs a call can visit: the expansion tree's.
		visits := map[psioa.State]int{}
		ref, err := sched.Measure(tc.raw, tc.mk(tc.raw), tc.maxDepth)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		ref.ForEachPrefix(func(f *psioa.Frag) {
			if k := fmt.Sprintf("%s@%d", f.LState(), f.Len()); !seen[k] {
				seen[k] = true
				visits[f.LState()]++
			}
		})
		ca := &countingAut{PSIOA: tc.raw}
		s := tc.mk(ca)
		dob, _ := sched.AsDepthOblivious(s)
		final := func(f *psioa.Frag) string { return string(f.LState()) }
		for _, w := range []int{1, 2, 8} {
			o := sched.Options{Workers: w}
			kernels := map[string]func() error{
				"MeasureOpts": func() error {
					_, err := sched.MeasureOpts(context.Background(), ca, s, tc.maxDepth, nil, o)
					return err
				},
				"MeasureDAGOpts": func() error {
					_, err := sched.MeasureDAGOpts(context.Background(), ca, dob, tc.maxDepth, nil, o)
					return err
				},
				"SampleImageOpts": func() error {
					_, err := sched.SampleImageOpts(context.Background(), ca, s, rng.New(3), tc.maxDepth, 2000, final, nil, o)
					return err
				},
				"SampleStateImageOpts": func() error {
					_, err := sched.SampleStateImageOpts(context.Background(), ca, dob, rng.New(3), tc.maxDepth, 2000,
						func(q psioa.State, _ int) string { return string(q) }, nil, o)
					return err
				},
				"SampleImage": func() error {
					_, err := sched.SampleImage(ca, s, rng.New(3), tc.maxDepth, 2000, final)
					return err
				},
			}
			for name, run := range kernels {
				ca.reset()
				fills := obs.C("sched.step.fills").Value()
				if err := run(); err != nil {
					t.Fatalf("%s %s workers %d: %v", tc.name, name, w, err)
				}
				if obs.C("sched.step.fills").Value() == fills {
					t.Errorf("%s %s workers %d: sched.step.fills did not advance", tc.name, name, w)
				}
				for q, n := range ca.sigs {
					if n > visits[q] {
						t.Errorf("%s %s workers %d: Sig(%q) called %d times, state visited at %d depths", tc.name, name, w, q, n, visits[q])
					}
				}
				for k, n := range ca.trans {
					if q := psioa.State(k[0]); n > visits[q] {
						t.Errorf("%s %s workers %d: Trans(%q, %q) called %d times, state visited at %d depths", tc.name, name, w, q, k[1], n, visits[q])
					}
				}
			}
		}
	}
}
