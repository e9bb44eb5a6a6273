package insight_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// escAut is an automaton whose action names need escaping in a tuple
// ('|', '\' and the literal "()", the empty tuple's encoding), and whose
// action "()" is an output at q0 but internal at q1, so an image that
// ignores where an action is external differs from the trace image. It
// halts at several depths (stop has an empty signature).
func escAut() *psioa.Table {
	dist := func(kv ...any) *psioa.Dist {
		d := measure.New[psioa.State]()
		for i := 0; i < len(kv); i += 2 {
			d.Add(psioa.State(kv[i].(string)), kv[i+1].(float64))
		}
		return d
	}
	return psioa.NewBuilder("esc", "q0").
		AddState("q0", psioa.NewSignature(nil, []psioa.Action{"o|1", "()"}, []psioa.Action{`h\0`})).
		AddState("q1", psioa.NewSignature(nil, []psioa.Action{"print_|x"}, []psioa.Action{`print_\y`, "()"})).
		AddState("stop", psioa.EmptySignature()).
		AddTrans("q0", "o|1", dist("q1", 0.5, "q0", 0.5)).
		AddTrans("q0", "()", dist("stop", 1.0)).
		AddTrans("q0", `h\0`, dist("q1", 1.0)).
		AddTrans("q1", "print_|x", dist("q0", 0.5, "stop", 0.5)).
		AddTrans("q1", `print_\y`, dist("q0", 1.0)).
		AddTrans("q1", "()", dist("q1", 0.25, "stop", 0.75)).
		MustBuild()
}

// foldWorld is an automaton with a scheduler, the insights to image it
// under, and, for each insight, its value on an execution written from the
// execution's whole trace: the per-execution definitions the step
// factorings replace.
type foldWorld struct {
	name     string
	w        psioa.PSIOA
	s        sched.Scheduler
	maxDepth int
	// partial, when positive, is a transition budget that stops the
	// expansion early: the world is also imaged on that partial measure.
	partial int64
	cases   []foldCase
}

type foldCase struct {
	f   insight.Insight
	ref func(w psioa.PSIOA, fr *psioa.Frag) string
}

// traceCases returns the trace, accept, print and restrict insights with
// their reference definitions.
func traceCases(acc psioa.Action, prefix string, set []psioa.Action) []foldCase {
	keep := func(pred func(psioa.Action) bool) func(w psioa.PSIOA, fr *psioa.Frag) string {
		return func(w psioa.PSIOA, fr *psioa.Frag) string {
			var parts []string
			for _, a := range fr.Trace(w) {
				if pred(a) {
					parts = append(parts, string(a))
				}
			}
			return codec.EncodeTuple(parts)
		}
	}
	in := psioa.NewActionSet(set...)
	return []foldCase{
		{insight.Trace(), func(w psioa.PSIOA, fr *psioa.Frag) string { return fr.TraceKey(w) }},
		{insight.Accept(acc), func(w psioa.PSIOA, fr *psioa.Frag) string {
			for _, a := range fr.Trace(w) {
				if a == acc {
					return "1"
				}
			}
			return "0"
		}},
		{insight.Print(prefix), keep(func(a psioa.Action) bool { return strings.HasPrefix(string(a), prefix) })},
		{insight.Restrict(in), keep(in.Has)},
	}
}

func foldWorlds() []foldWorld {
	esc := escAut()
	worlds := []foldWorld{{
		name: "esc", w: esc, s: &sched.Random{A: esc, Bound: 6, LocalOnly: true}, maxDepth: 8, partial: 60,
		cases: traceCases("()", "print_", []psioa.Action{"()", "print_|x", `h\0`}),
	}}
	for _, seed := range []uint64{3, 17, 42} {
		id := fmt.Sprintf("r%d", seed)
		a := testaut.RandomAutomaton(id, testaut.RandomSpec{States: 5, Actions: 4, Branch: 2, InputShare: 0.2}, rng.New(seed).Uint64)
		act := func(i int) psioa.Action { return psioa.Action(fmt.Sprintf("a%d_%s", i, id)) }
		worlds = append(worlds, foldWorld{
			name: id, w: a, s: &sched.Random{A: a, Bound: 7, LocalOnly: true}, maxDepth: 9,
			cases: traceCases(act(0), "a1_", []psioa.Action{act(0), act(2)}),
		})
	}
	return worlds
}

// sameImage fails unless got and want have the same keys with the same
// float64 bits.
func sameImage(t *testing.T, what string, got, want *measure.Dist[string]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d keys, want %d", what, got.Len(), want.Len())
	}
	for _, k := range want.SortedSupport() {
		if g, w := got.P(k), want.P(k); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: P(%q) = %v, want %v", what, k, g, w)
		}
	}
}

// TestStepFoldMatchesApply: the image folded over the expansion tree
// (insight.Image, through each insight's Init and Step) equals the image of
// the per-execution definitions, in keys and float64 bits, on exact
// measures at every worker count and on a budget-partial measure of the
// escaping automaton, which halts below its bound. The Apply that folds
// Step along one execution agrees with them on every halted execution.
func TestStepFoldMatchesApply(t *testing.T) {
	for _, wd := range foldWorlds() {
		measures := map[string]*sched.ExecMeasure{}
		for _, workers := range []int{1, 2, 8} {
			em, err := sched.MeasureOpts(context.Background(), wd.w, wd.s, wd.maxDepth, nil, sched.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", wd.name, err)
			}
			measures[fmt.Sprintf("workers=%d", workers)] = em
		}
		if wd.partial > 0 {
			em, err := sched.MeasureOpts(context.Background(), wd.w, wd.s, wd.maxDepth, resilience.NewBudget(0, wd.partial, 0), sched.Options{Workers: 2})
			if !resilience.IsBudget(err) || em == nil {
				t.Fatalf("%s: budget stop returned %v, %v; want a partial measure", wd.name, em, err)
			}
			measures["partial"] = em
		}
		for mname, em := range measures {
			if em.Len() == 0 {
				t.Fatalf("%s %s: no halted executions to image", wd.name, mname)
			}
			for _, c := range wd.cases {
				what := fmt.Sprintf("%s %s %s", wd.name, mname, c.f.ID)
				want := em.Image(func(fr *psioa.Frag) string { return c.ref(wd.w, fr) })
				sameImage(t, what, insight.Image(wd.w, em, c.f), want)
				em.ForEach(func(fr *psioa.Frag, _ float64) {
					if got, want := c.f.Apply(wd.w, fr), c.ref(wd.w, fr); got != want {
						t.Fatalf("%s: Apply(%v) = %q, want %q", what, fr, got, want)
					}
				})
			}
		}
	}
}

// sigCounter counts Sig calls.
type sigCounter struct {
	psioa.PSIOA
	n atomic.Int64
}

func (c *sigCounter) Sig(q psioa.State) psioa.Signature {
	c.n.Add(1)
	return c.PSIOA.Sig(q)
}

// TestTraceImageSigCalls: a trace image reads a signature at most once per
// step of the expansion tree — once per node but the root — not once per
// step of every halted execution.
func TestTraceImageSigCalls(t *testing.T) {
	walk := testaut.RandomWalk("w", 6, 0.5)
	esc := escAut()
	for _, tc := range []struct {
		name     string
		w        psioa.PSIOA
		s        sched.Scheduler
		maxDepth int
	}{
		{"walk/greedy", walk, &sched.Greedy{A: walk, Bound: 10, LocalOnly: true}, 12},
		{"esc/random", esc, &sched.Random{A: esc, Bound: 6, LocalOnly: true}, 8},
	} {
		for _, workers := range []int{1, 2, 8} {
			em, err := sched.MeasureOpts(context.Background(), tc.w, tc.s, tc.maxDepth, nil, sched.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			nodes, steps := 0, 0
			em.ForEachPrefix(func(*psioa.Frag) { nodes++ })
			em.ForEach(func(fr *psioa.Frag, _ float64) { steps += fr.Len() })
			ca := &sigCounter{PSIOA: tc.w}
			insight.Image(ca, em, insight.Trace())
			if got := ca.n.Load(); got > int64(nodes-1) {
				t.Errorf("%s workers %d: trace image called Sig %d times, want at most %d (tree nodes − 1; the halted executions have %d steps)",
					tc.name, workers, got, nodes-1, steps)
			}
		}
	}
}
