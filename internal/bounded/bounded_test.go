package bounded_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bounded"
	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

func TestDescribeCoin(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	d, err := bounded.Describe(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.States != 4 {
		t.Errorf("States = %d, want 4", d.States)
	}
	// Longest action name: "heads_c"/"tails_c" = 7 bytes = 56 bits.
	if d.MaxActionBits != 56 {
		t.Errorf("MaxActionBits = %d, want 56", d.MaxActionBits)
	}
	if d.MaxStateBits != 4*8 {
		t.Errorf("MaxStateBits = %d, want 32 (\"done\")", d.MaxStateBits)
	}
	if d.MaxTransBits <= d.MaxActionBits {
		t.Error("transition encoding should dominate action encoding")
	}
	if d.B() != d.MaxTransBits {
		t.Errorf("B = %d, want MaxTransBits = %d", d.B(), d.MaxTransBits)
	}
	if d.Truncated {
		t.Error("unexpected truncation")
	}
	if !strings.Contains(d.String(), "B=") {
		t.Error("String() malformed")
	}
}

func TestDescribePCAComponents(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5))
	init := pca.NewConfig(map[string]psioa.State{"c1": "q0"})
	x := pca.MustNew("X", reg, init)
	d, err := bounded.Describe(x, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxConfigBits == 0 {
		t.Error("PCA config bits not measured")
	}
	// Plain PSIOA has no PCA components.
	dp, _ := bounded.Describe(testaut.Coin("c", 0.5), 100)
	if dp.MaxConfigBits != 0 || dp.MaxCreatedBits != 0 || dp.MaxHiddenBits != 0 {
		t.Error("plain PSIOA reported PCA components")
	}
}

func TestCompositionBoundLemma(t *testing.T) {
	// Lemma 4.3/B.1: B(A1||A2) ≤ c·(B1+B2) with a universal constant. Our
	// tuple encoding gives c close to 1 (separator overhead only); assert a
	// generous c ≤ 3 across a sweep of sizes, matching the lemma's "there
	// exists a constant".
	for _, n := range []int{2, 5, 10, 20} {
		a1 := testaut.Counter("a1", n)
		a2 := testaut.Counter("a2", 2*n)
		r, err := bounded.CompositionBound(a1, a2, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if r.C > 3 {
			t.Errorf("n=%d: empirical c=%v exceeds 3 (%v)", n, r.C, r)
		}
		if r.B12 < r.B1 || r.B12 < r.B2 {
			t.Errorf("n=%d: composition bound below component bound: %v", n, r)
		}
	}
}

func TestCompositionBoundPCA(t *testing.T) {
	// Lemma B.2: PCA composition is bounded too.
	mk := func(id string) pca.PCA {
		reg := pca.MapRegistry{}.Register(testaut.Coin("c_"+id, 0.5))
		init := pca.NewConfig(map[string]psioa.State{"c_" + id: "q0"})
		return pca.MustNew("X_"+id, reg, init)
	}
	x1, x2 := mk("a"), mk("b")
	d1, _ := bounded.Describe(x1, 1000)
	d2, _ := bounded.Describe(x2, 1000)
	comp := pca.MustComposePCA(x1, x2)
	d12, err := bounded.Describe(comp, 1000)
	if err != nil {
		t.Fatal(err)
	}
	c := float64(d12.B()) / float64(d1.B()+d2.B())
	if c > 3 {
		t.Errorf("PCA composition constant %v exceeds 3", c)
	}
	if d12.MaxConfigBits == 0 {
		t.Error("composed PCA config bits not measured")
	}
}

func TestHidingBoundLemma(t *testing.T) {
	// Lemma 4.5/B.3: hiding is bounded with a universal constant; in fact
	// hiding never increases the description in our encoding.
	a := testaut.Coin("c", 0.5)
	r, err := bounded.HidingBound(a, psioa.NewActionSet("heads_c", "tails_c"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.C > 1 {
		t.Errorf("hiding constant %v exceeds 1: %v", r.C, r)
	}
	if r.B12 > r.B1 {
		t.Errorf("hiding increased the description bound: %v", r)
	}
}

func TestEncodeTransitionCanonical(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	e1 := bounded.EncodeTransition("q0", "flip_c", c.Trans("q0", "flip_c"))
	e2 := bounded.EncodeTransition("q0", "flip_c", c.Trans("q0", "flip_c"))
	if e1 != e2 {
		t.Error("transition encoding not deterministic")
	}
	d := testaut.Coin("d", 0.25)
	if e1 == bounded.EncodeTransition("q0", "flip_c", d.Trans("q0", "flip_d")) {
		t.Error("different measures share an encoding")
	}
}

func TestInstrumentCounters(t *testing.T) {
	var ctr bounded.Counter
	c := testaut.Coin("c", 0.5)
	inst := bounded.Instrument(c, &ctr)
	if inst.ID() != "c" || inst.Start() != "q0" {
		t.Error("instrumented wrapper changed identity")
	}
	inst.Sig("q0")
	inst.Trans("q0", "flip_c")
	if ctr.SigQueries.Load() != 1 || ctr.TransQueries.Load() != 1 {
		t.Errorf("queries = %d/%d", ctr.SigQueries.Load(), ctr.TransQueries.Load())
	}
	if ctr.Work.Load() <= 0 || ctr.MaxQueryWork.Load() <= 0 {
		t.Error("no work recorded")
	}
	if ctr.MaxQueryWork.Load() > ctr.Work.Load() {
		t.Error("max per query exceeds total")
	}
}

func TestQueryWorkCompositionLinear(t *testing.T) {
	// The per-query work of the composed evaluator is within a constant of
	// the sum of component per-query works (the executable content of
	// Lemma 4.3's time bound).
	a1 := testaut.Counter("a1", 8)
	a2 := testaut.Counter("a2", 8)
	w1, _, err := bounded.QueryWork(a1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := bounded.QueryWork(a2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	w12, _, err := bounded.QueryWork(psioa.MustCompose(a1, a2), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c := float64(w12) / float64(w1+w2); c > 3 {
		t.Errorf("per-query work constant %v exceeds 3 (w1=%d w2=%d w12=%d)", c, w1, w2, w12)
	}
}

func TestPolyAndNegl(t *testing.T) {
	p := bounded.Poly(1, 2, 3) // 1 + 2k + 3k²
	if p(0) != 1 || p(2) != 17 {
		t.Errorf("Poly wrong: p(0)=%v p(2)=%v", p(0), p(2))
	}
	n := bounded.Negl(2)
	if math.Abs(n(3)-0.125) > 1e-12 {
		t.Errorf("Negl(2)(3) = %v", n(3))
	}
	if bounded.Const(5)(99) != 5 {
		t.Error("Const wrong")
	}
}

func TestIsNegligibleOn(t *testing.T) {
	if !bounded.IsNegligibleOn(bounded.Negl(2), bounded.Poly(0, 0, 1), 10, 40) {
		t.Error("2^-k should beat k² on [10,40]")
	}
	// 1/k is not negligible against k².
	inv := func(k int) float64 { return 1 / float64(k) }
	if bounded.IsNegligibleOn(inv, bounded.Poly(0, 0, 1), 10, 40) {
		t.Error("1/k accepted as negligible against k²")
	}
}

func TestFamilyHelpers(t *testing.T) {
	fam := bounded.Family(func(k int) psioa.PSIOA { return testaut.Counter(fmt.Sprintf("cnt%d", k), k) })
	descs, err := bounded.FamilyDesc(fam, 1, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 5 {
		t.Errorf("descs = %d", len(descs))
	}
	// Description grows with k but stays within a generous linear bound.
	if err := bounded.CheckTimeBoundedFamily(fam, bounded.Poly(2000, 600), 1, 5, 1000); err != nil {
		t.Errorf("CheckTimeBoundedFamily: %v", err)
	}
	if err := bounded.CheckTimeBoundedFamily(fam, bounded.Const(1), 1, 5, 1000); err == nil {
		t.Error("absurd bound accepted")
	}
}

func TestComposeFamilies(t *testing.T) {
	f1 := bounded.Family(func(k int) psioa.PSIOA { return testaut.Counter(fmt.Sprintf("a%d", k), k) })
	f2 := bounded.Family(func(k int) psioa.PSIOA { return testaut.Counter(fmt.Sprintf("b%d", k), k) })
	comp := bounded.ComposeFamilies(f1, f2)
	m := comp(3)
	if m.ID() != "a3||b3" {
		t.Errorf("composed family member ID = %q", m.ID())
	}
}

func TestCheckBoundedSchedulerFamily(t *testing.T) {
	fam := bounded.Family(func(k int) psioa.PSIOA { return testaut.Coin(fmt.Sprintf("c%d", k), 0.5) })
	sf := bounded.SchedulerFamily(func(k int) sched.Scheduler {
		return &sched.Greedy{A: fam(k).(psioa.PSIOA), Bound: k}
	})
	if err := bounded.CheckBoundedSchedulerFamily(fam, sf, bounded.Poly(0, 1), 1, 5); err != nil {
		t.Errorf("bounded family rejected: %v", err)
	}
	// An unbounded scheduler family fails.
	bad := bounded.SchedulerFamily(func(k int) sched.Scheduler {
		return &sched.FuncSched{ID: "loop", Fn: func(f *psioa.Frag) *sched.Choice {
			ch := sched.Halt()
			ch.Add(psioa.Action(fmt.Sprintf("go_c%d", k)), 1)
			return ch
		}}
	})
	badFam := bounded.Family(func(k int) psioa.PSIOA { return testaut.OpenCoin(fmt.Sprintf("c%d", k), 0.5) })
	if err := bounded.CheckBoundedSchedulerFamily(badFam, bad, bounded.Poly(2), 1, 3); err == nil {
		t.Error("unbounded scheduler family accepted")
	}
}
