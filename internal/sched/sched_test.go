package sched_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

func TestMeasureCoin(t *testing.T) {
	c := testaut.Coin("c", 0.25)
	s := &sched.Greedy{A: c, Bound: 5}
	em, err := sched.Measure(c, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(em.Total()-1) > 1e-9 {
		t.Errorf("total = %v, want 1", em.Total())
	}
	// Two halted executions: flip;heads and flip;tails.
	if em.Len() != 2 {
		t.Fatalf("support = %d, want 2", em.Len())
	}
	fh := psioa.NewFrag("q0").Extend("flip_c", "h").Extend("heads_c", "done")
	ft := psioa.NewFrag("q0").Extend("flip_c", "t").Extend("tails_c", "done")
	if math.Abs(em.P(fh)-0.25) > 1e-9 {
		t.Errorf("P(heads path) = %v, want 0.25", em.P(fh))
	}
	if math.Abs(em.P(ft)-0.75) > 1e-9 {
		t.Errorf("P(tails path) = %v, want 0.75", em.P(ft))
	}
	if em.MaxLen() != 2 {
		t.Errorf("MaxLen = %d, want 2", em.MaxLen())
	}
}

func TestMeasureHaltingDeficit(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	// A scheduler that halts with probability 0.5 immediately and otherwise
	// flips: the halted-at-start execution carries mass 0.5.
	s := &sched.FuncSched{ID: "halfhalt", Fn: func(f *psioa.Frag) *sched.Choice {
		if f.Len() > 0 {
			return sched.Halt()
		}
		ch := measure.New[psioa.Action]()
		ch.Add("flip_c", 0.5)
		return ch
	}}
	em, err := sched.Measure(c, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	root := psioa.NewFrag("q0")
	if math.Abs(em.P(root)-0.5) > 1e-9 {
		t.Errorf("P(halt at start) = %v, want 0.5", em.P(root))
	}
	if math.Abs(em.Total()-1) > 1e-9 {
		t.Errorf("total = %v", em.Total())
	}
}

func TestMeasureRejectsUnboundedScheduler(t *testing.T) {
	c := testaut.OpenCoin("c", 0.5)
	evil := &sched.FuncSched{ID: "loop", Fn: func(f *psioa.Frag) *sched.Choice {
		return measure.Dirac(psioa.Action("go_c"))
	}}
	if _, err := sched.Measure(c, evil, 8); err == nil {
		t.Error("expected depth error for unbounded scheduler")
	}
}

func TestMeasureRejectsDisabledChoice(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	bad := &sched.FuncSched{ID: "bad", Fn: func(f *psioa.Frag) *sched.Choice {
		if f.Len() > 0 {
			return sched.Halt()
		}
		return measure.Dirac(psioa.Action("nonexistent"))
	}}
	if _, err := sched.Measure(c, bad, 8); err == nil {
		t.Error("expected disabled-action error")
	}
}

func TestMeasureRejectsSuperProbChoice(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	bad := &sched.FuncSched{ID: "heavy", Fn: func(f *psioa.Frag) *sched.Choice {
		ch := measure.New[psioa.Action]()
		ch.Add("flip_c", 0.8)
		ch.Add("flip_c", 0.8)
		return ch
	}}
	if _, err := sched.Measure(c, bad, 8); err == nil {
		t.Error("expected super-probability error")
	}
}

func TestSequenceScheduler(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := &sched.Sequence{A: c, Acts: []psioa.Action{"flip_c", "heads_c"}}
	em, err := sched.Measure(c, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// With prob 0.5 we reach h and heads_c is enabled (full path);
	// with prob 0.5 we reach t where heads_c is disabled → halt at len 1.
	full := psioa.NewFrag("q0").Extend("flip_c", "h").Extend("heads_c", "done")
	cut := psioa.NewFrag("q0").Extend("flip_c", "t")
	if math.Abs(em.P(full)-0.5) > 1e-9 || math.Abs(em.P(cut)-0.5) > 1e-9 {
		t.Errorf("sequence measure wrong: P(full)=%v P(cut)=%v", em.P(full), em.P(cut))
	}
}

func TestPriorityScheduler(t *testing.T) {
	pinger, ponger := testaut.PingPong(2)
	p := psioa.MustCompose(pinger, ponger)
	s := &sched.Sequence{A: p, Acts: []psioa.Action{"ping", "pong", "ping", "pong"}}
	em, err := sched.Measure(p, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if em.Len() != 1 {
		t.Fatalf("deterministic system: support = %d, want 1", em.Len())
	}
	var last *psioa.Frag
	em.ForEach(func(f *psioa.Frag, pr float64) { last = f })
	want := []psioa.Action{"ping", "pong", "ping", "pong"}
	for i, a := range want {
		if last.ActionAt(i) != a {
			t.Fatalf("action %d = %q, want %q", i, last.ActionAt(i), a)
		}
	}
	if done := p.Join([]psioa.State{"pdone", "rdone"}); last.LState() != done {
		t.Errorf("final state = %q, want %q", last.LState(), done)
	}
}

func TestPrioritySchedulerOnCoin(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := &sched.Priority{A: c, Order: []psioa.Action{"flip_c", "heads_c", "tails_c"}, Bound: 5}
	em, err := sched.Measure(c, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Both branches run to completion: flip;heads and flip;tails, 0.5 each.
	if em.Len() != 2 || math.Abs(em.Total()-1) > 1e-9 {
		t.Fatalf("support = %d total = %v", em.Len(), em.Total())
	}
	em.ForEach(func(f *psioa.Frag, p float64) {
		if f.Len() != 2 {
			t.Errorf("execution %v has length %d, want 2", f, f.Len())
		}
	})
}

func TestBoundedWrapper(t *testing.T) {
	c := testaut.OpenCoin("c", 0.5)
	inner := &sched.FuncSched{ID: "loop", Fn: func(f *psioa.Frag) *sched.Choice {
		return measure.Dirac(psioa.Action("go_c"))
	}}
	b := &sched.Bounded{Inner: inner, B: 3}
	em, err := sched.Measure(c, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if em.MaxLen() != 3 {
		t.Errorf("MaxLen = %d, want 3", em.MaxLen())
	}
	if err := sched.IsBounded(c, b, 3); err != nil {
		t.Errorf("IsBounded: %v", err)
	}
	if err := sched.IsBounded(c, inner, 3); err == nil {
		t.Error("unbounded scheduler passed IsBounded")
	}
}

func TestRandomSchedulerUniform(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := &sched.Random{A: c, Bound: 4}
	em, err := sched.Measure(c, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(em.Total()-1) > 1e-9 {
		t.Errorf("total = %v", em.Total())
	}
}

func TestConeMeasure(t *testing.T) {
	c := testaut.Coin("c", 0.25)
	s := &sched.Greedy{A: c, Bound: 5}
	em, err := sched.Measure(c, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Cone of the empty execution is the whole space.
	if math.Abs(em.Cone(psioa.NewFrag("q0"))-1) > 1e-9 {
		t.Errorf("Cone(root) = %v", em.Cone(psioa.NewFrag("q0")))
	}
	// Cone after flipping heads: P = 0.25.
	heads := psioa.NewFrag("q0").Extend("flip_c", "h")
	if math.Abs(em.Cone(heads)-0.25) > 1e-9 {
		t.Errorf("Cone(heads) = %v", em.Cone(heads))
	}
	// Cones of sibling prefixes partition the space.
	tails := psioa.NewFrag("q0").Extend("flip_c", "t")
	if math.Abs(em.Cone(heads)+em.Cone(tails)-1) > 1e-9 {
		t.Error("sibling cones do not partition")
	}
	// A cone off the support has measure zero.
	if em.Cone(psioa.NewFrag("q0").Extend("flip_c", "done")) != 0 {
		t.Error("impossible cone has positive measure")
	}
}

func TestImage(t *testing.T) {
	c := testaut.Coin("c", 0.3)
	s := &sched.Greedy{A: c, Bound: 5}
	em, _ := sched.Measure(c, s, 10)
	img := em.Image(func(f *psioa.Frag) string { return f.TraceKey(c) })
	if img.Len() != 2 {
		t.Fatalf("image support = %d, want 2", img.Len())
	}
	if math.Abs(img.Total()-1) > 1e-9 {
		t.Error("image not a probability measure")
	}
}

func TestSampleAgreesWithMeasure(t *testing.T) {
	c := testaut.Coin("c", 0.3)
	s := &sched.Greedy{A: c, Bound: 5}
	em, _ := sched.Measure(c, s, 10)
	exact := em.Image(func(f *psioa.Frag) string { return f.TraceKey(c) })
	stream := rng.New(123)
	est, err := sched.SampleImage(c, s, stream, 10, 20000, func(f *psioa.Frag) string { return f.TraceKey(c) })
	if err != nil {
		t.Fatal(err)
	}
	if d := measure.TVDistance(exact, est); d > 0.02 {
		t.Errorf("sampled estimate off by TV %v", d)
	}
}

func TestSampleDepthError(t *testing.T) {
	c := testaut.OpenCoin("c", 0.5)
	evil := &sched.FuncSched{ID: "loop", Fn: func(f *psioa.Frag) *sched.Choice {
		return measure.Dirac(psioa.Action("go_c"))
	}}
	if _, err := sched.Sample(c, evil, rng.New(1), 5); err == nil {
		t.Error("expected depth error")
	}
}

func TestObliviousSchemaEnumerate(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	schema := &sched.ObliviousSchema{}
	ss, err := schema.Enumerate(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	// alphabet {flip,heads,tails}: 1 + 3 + 9 = 13 sequences.
	if len(ss) != 13 {
		t.Errorf("enumerated %d schedulers, want 13", len(ss))
	}
	for _, s := range ss {
		if err := sched.IsBounded(c, s, 2); err != nil {
			t.Errorf("scheduler %s not 2-bounded: %v", s.Name(), err)
		}
	}
}

func TestObliviousSchemaCap(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	schema := &sched.ObliviousSchema{MaxCount: 5}
	if _, err := schema.Enumerate(c, 3); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("expected cap error, got %v", err)
	}
}

func TestBasicSchema(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	ss, err := sched.BasicSchema{}.Enumerate(c, 4)
	if err != nil || len(ss) != 2 {
		t.Fatalf("BasicSchema: %v %d", err, len(ss))
	}
}

func TestFixedSchema(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	g := &sched.Greedy{A: c, Bound: 3}
	f := &sched.FixedSchema{ID: "fix", PerAut: map[string][]sched.Scheduler{"c": {g}}}
	ss, _ := f.Enumerate(c, 3)
	if len(ss) != 1 || ss[0] != g {
		t.Error("FixedSchema lookup failed")
	}
	other := testaut.Coin("other", 0.5)
	ss, _ = f.Enumerate(other, 3)
	if len(ss) != 0 {
		t.Error("FixedSchema default should be empty")
	}
}

func TestFactorsThrough(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	// Sequence schedulers factor through the step index view.
	s := &sched.Sequence{A: c, Acts: []psioa.Action{"flip_c", "heads_c"}}
	stepView := func(f *psioa.Frag) string {
		key := []byte{byte('0' + f.Len())}
		// Include enabled-set so the decision is well-defined per view.
		return string(key) + c.Sig(f.LState()).All().Key()
	}
	if err := sched.FactorsThrough(c, s, stepView, 10); err != nil {
		t.Errorf("oblivious scheduler should factor through step view: %v", err)
	}
	// A state-dependent scheduler does not factor through the pure index
	// view.
	peek := &sched.FuncSched{ID: "peek", Fn: func(f *psioa.Frag) *sched.Choice {
		if f.Len() == 0 {
			return measure.Dirac(psioa.Action("flip_c"))
		}
		if f.LState() == "h" {
			return measure.Dirac(psioa.Action("heads_c"))
		}
		return sched.Halt()
	}}
	idxView := func(f *psioa.Frag) string { return string(rune('0' + f.Len())) }
	if err := sched.FactorsThrough(c, peek, idxView, 10); err == nil {
		t.Error("state-dependent scheduler should not factor through index view")
	}
}

func TestGreedyAndRandomHaltOnEmpty(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	// "done" has empty signature; both schedulers must halt there.
	g := &sched.Greedy{A: c, Bound: 10}
	r := &sched.Random{A: c, Bound: 10}
	f := psioa.NewFrag("done")
	if g.Choose(f).Total() != 0 || r.Choose(f).Total() != 0 {
		t.Error("schedulers must halt at empty signature")
	}
}

// TestHaltAtBoundAllocFree: halting at the bound is the last choice of
// every sample and every leaf of an expansion, so it returns a shared
// choice instead of building an empty one.
func TestHaltAtBoundAllocFree(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	g := &sched.Greedy{A: c, Bound: 3}
	q := c.Start()
	if n := testing.AllocsPerRun(100, func() {
		if g.ChooseAt(q, 3).Deficit() != 1 {
			t.Fatal("greedy must halt at its bound")
		}
	}); n != 0 {
		t.Errorf("Greedy.ChooseAt at the bound allocates %v times per call, want 0", n)
	}
}
