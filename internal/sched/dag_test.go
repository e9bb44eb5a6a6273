package sched_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// dagSchedulers enumerates depth-oblivious schedulers over a workload.
func dagSchedulers(w psioa.PSIOA) map[string]sched.Scheduler {
	step, hit := psioa.Action("step_w"), psioa.Action("hit_w")
	return map[string]sched.Scheduler{
		"greedy":          &sched.Greedy{A: w, Bound: 8},
		"random":          &sched.Random{A: w, Bound: 8},
		"sequence":        &sched.Sequence{A: w, Acts: []psioa.Action{step, step, step, step, step, hit}},
		"priority":        &sched.Priority{A: w, Order: []psioa.Action{step, hit}, Bound: 8},
		"bounded(random)": &sched.Bounded{Inner: &sched.Random{A: w, Bound: 20}, B: 6},
	}
}

// TestMeasureDAGMatchesTree pins the collapse: on a dyadic workload the DAG
// kernel's total mass, max length and state-local image agree bit for bit
// with the exact tree expansion, for every depth-oblivious schema.
func TestMeasureDAGMatchesTree(t *testing.T) {
	w := testaut.RandomWalk("w", 5, 0.5)
	for name, s := range dagSchedulers(w) {
		em, err := sched.Measure(w, s, 10)
		if err != nil {
			t.Fatalf("%s: tree: %v", name, err)
		}
		dob, ok := sched.AsDepthOblivious(s)
		if !ok {
			t.Fatalf("%s: should be depth-oblivious", name)
		}
		dm, err := sched.MeasureDAGOpts(context.Background(), w, dob, 10, nil, sched.Options{})
		if err != nil {
			t.Fatalf("%s: dag: %v", name, err)
		}
		if dm.Total() != em.Total() {
			t.Errorf("%s: DAG total %.17g != tree total %.17g", name, dm.Total(), em.Total())
		}
		if dm.MaxLen() != em.MaxLen() {
			t.Errorf("%s: DAG maxlen %d != tree maxlen %d", name, dm.MaxLen(), em.MaxLen())
		}
		if dm.Classes() > em.Len() {
			t.Errorf("%s: %d halting classes exceed %d executions", name, dm.Classes(), em.Len())
		}
		want := renderDist(em.Image(func(f *psioa.Frag) string { return string(f.LState()) }))
		got := renderDist(dm.Image(func(q psioa.State, depth int) string { return string(q) }))
		if got != want {
			t.Errorf("%s: DAG final-state image differs from tree:\n%s\nvs\n%s", name, got, want)
		}
	}
}

// TestMeasureDAGDepthZero pins the depth-0 convention shared with the tree
// kernel: ε_σ is the Dirac measure on the start state.
func TestMeasureDAGDepthZero(t *testing.T) {
	w := testaut.RandomWalk("w", 3, 0.5)
	dob, _ := sched.AsDepthOblivious(&sched.Greedy{A: w, Bound: 4})
	dm, err := sched.MeasureDAGOpts(context.Background(), w, dob, 0, nil, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Total() != 1 || dm.MaxLen() != 0 || dm.Classes() != 1 {
		t.Errorf("depth-0 DAG = total %v maxlen %d classes %d, want 1/0/1", dm.Total(), dm.MaxLen(), dm.Classes())
	}
}

// TestAsDepthOblivious pins the capability routing: built-in memoryless and
// oblivious schemas qualify (including Bounded over them), fragment-inspecting
// schedulers do not.
func TestAsDepthOblivious(t *testing.T) {
	w := testaut.RandomWalk("w", 3, 0.5)
	random := &sched.Random{A: w, Bound: 4}
	fn := &sched.FuncSched{ID: "fn", Fn: func(f *psioa.Frag) *sched.Choice { return sched.Halt() }}
	oblivious := []sched.Scheduler{
		&sched.Greedy{A: w, Bound: 4},
		random,
		&sched.Sequence{A: w, Acts: nil},
		&sched.Priority{A: w, Order: nil, Bound: 4},
		&sched.Bounded{Inner: random, B: 2},
		&sched.Bounded{Inner: &sched.Bounded{Inner: random, B: 3}, B: 2},
	}
	for _, s := range oblivious {
		if _, ok := sched.AsDepthOblivious(s); !ok {
			t.Errorf("%s: want depth-oblivious", s.Name())
		}
	}
	opaque := []sched.Scheduler{
		fn,
		&sched.Bounded{Inner: fn, B: 2},
		&sched.Mix{Weights: []float64{1}, Inner: []sched.Scheduler{random}},
		&sched.ViewScheduler{ID: "v", View: func(f *psioa.Frag) string { return "" },
			Decide: func(string, *psioa.Frag) *sched.Choice { return sched.Halt() }},
	}
	for _, s := range opaque {
		if _, ok := sched.AsDepthOblivious(s); ok {
			t.Errorf("%s: must not be treated as depth-oblivious", s.Name())
		}
	}
}

// TestBoundedObliviousRespectsBound pins the Bounded unwrapping: the adapter
// must halt at the wrapper's bound, not the inner scheduler's.
func TestBoundedObliviousRespectsBound(t *testing.T) {
	w := testaut.RandomWalk("w", 5, 0.5)
	s := &sched.Bounded{Inner: &sched.Random{A: w, Bound: 20}, B: 3}
	em, err := sched.Measure(w, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	dob, _ := sched.AsDepthOblivious(s)
	dm, err := sched.MeasureDAGOpts(context.Background(), w, dob, 10, nil, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dm.MaxLen() != em.MaxLen() || dm.MaxLen() > 3 {
		t.Errorf("bounded DAG maxlen = %d (tree %d), want <= 3", dm.MaxLen(), em.MaxLen())
	}
}

// badChooser is a depth-oblivious scheduler returning a configurable invalid
// choice, for error-parity tests between the tree and DAG kernels.
type badChooser struct {
	id     string
	choice *sched.Choice
}

func (b *badChooser) Name() string { return b.id }
func (b *badChooser) Choose(alpha *psioa.Frag) *sched.Choice {
	return b.ChooseAt(alpha.LState(), alpha.Len())
}
func (b *badChooser) ChooseAt(q psioa.State, depth int) *sched.Choice { return b.choice }

// TestMeasureDAGErrorParity pins that validation errors carry the same typed
// sentinels on both kernels.
func TestMeasureDAGErrorParity(t *testing.T) {
	w := testaut.RandomWalk("w", 4, 0.5)
	over := measure.New[psioa.Action]()
	over.Add("step_w", 0.8)
	over.Add("hit_w", 0.8)
	disabled := measure.New[psioa.Action]()
	disabled.Add("nope", 1)
	cases := []struct {
		name string
		s    sched.Scheduler
		d    int
		want error
	}{
		{"overmass", &badChooser{id: "over", choice: over}, 8, sched.ErrOverMass},
		{"disabled", &badChooser{id: "disabled", choice: disabled}, 8, sched.ErrDisabledAction},
		{"depth", &sched.Random{A: w, Bound: 20}, 3, sched.ErrDepthExceeded},
	}
	for _, tc := range cases {
		_, terr := sched.Measure(w, tc.s, tc.d)
		if !errors.Is(terr, tc.want) {
			t.Fatalf("%s: tree err = %v, want %v", tc.name, terr, tc.want)
		}
		dob, ok := sched.AsDepthOblivious(tc.s)
		if !ok {
			t.Fatalf("%s: not depth-oblivious", tc.name)
		}
		dm, derr := sched.MeasureDAGOpts(context.Background(), w, dob, tc.d, nil, sched.Options{})
		if !errors.Is(derr, tc.want) {
			t.Errorf("%s: DAG err = %v, want %v", tc.name, derr, tc.want)
		}
		if dm != nil {
			t.Errorf("%s: DAG returned a measure alongside a validation error", tc.name)
		}
	}
}

// TestMeasureDAGCancelAndBudget pins the PR-4 sentinels on the DAG kernel:
// cancellation returns nothing, budget exhaustion returns the sound
// sub-probability prefix.
func TestMeasureDAGCancelAndBudget(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	dob, _ := sched.AsDepthOblivious(&sched.Random{A: w, Bound: 300})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dm, err := sched.MeasureDAGOpts(ctx, w, dob, 400, nil, sched.Options{})
	if dm != nil || !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled = (%v, %v), want (nil, ErrCancelled)", dm, err)
	}
	full, err := sched.MeasureDAGOpts(context.Background(), w, dob, 400, nil, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dm, err = sched.MeasureDAGOpts(nil, w, dob, 400, resilience.NewBudget(600, 0, 0), sched.Options{})
	if !resilience.IsBudget(err) {
		t.Fatalf("err = %v, want budget", err)
	}
	if dm == nil {
		t.Fatal("budget stop should return the partial aggregate")
	}
	if tot := dm.Total(); tot < 0 || tot >= full.Total() {
		t.Errorf("partial total = %v, want in [0, %v)", tot, full.Total())
	}
}

// TestMeasureDAGConvergingScales is the sub-exponential acceptance check: a
// random walk whose execution tree has ~2^64 paths collapses to a few hundred
// (state, depth) nodes, so the DAG kernel finishes instantly where the tree
// kernel could not terminate.
func TestMeasureDAGConvergingScales(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	nodes0 := obs.C("sched.measure.dag.nodes").Value()
	dob, _ := sched.AsDepthOblivious(&sched.Random{A: w, Bound: 64})
	dm, err := sched.MeasureDAGOpts(context.Background(), w, dob, 80, nil, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tot := dm.Total(); tot <= 0 || tot > 1+measure.Eps {
		t.Errorf("total = %v, want in (0, 1]", tot)
	}
	states := 8 // x0..x6 + end
	if dm.Classes() > states*65 {
		t.Errorf("classes = %d, want <= |states| x depth = %d", dm.Classes(), states*65)
	}
	if nodes := obs.C("sched.measure.dag.nodes").Value() - nodes0; nodes > int64(states*65) {
		t.Errorf("dag nodes = %d, want <= %d (O(|states| x depth))", nodes, states*65)
	}
}
