package psioa_test

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/testaut"
)

// genAut derives a random automaton from a quick-generated seed.
func genAut(id string, seed uint64, states, actions int) *psioa.Table {
	stream := rng.New(seed)
	return testaut.RandomAutomaton(id, testaut.RandomSpec{
		States: states, Actions: actions, Branch: 3, InputShare: 0.3,
	}, stream.Uint64)
}

// TestRandomAutomataValidQuick: every generated automaton satisfies the
// PSIOA constraints of Def 2.1.
func TestRandomAutomataValidQuick(t *testing.T) {
	prop := func(seed uint64, ns, na uint8) bool {
		a := genAut("r", seed, 1+int(ns%8), 1+int(na%6))
		return psioa.Validate(a, 1000) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestComposeProbabilityPreservedQuick: product transition measures are
// probability measures at every reachable state (Def 2.5 product measure).
func TestComposeProbabilityPreservedQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		a1 := genAut("r1", seed, 4, 3)
		a2 := genAut("r2", seed^0xabcdef, 4, 3)
		p, err := psioa.Compose(a1, a2)
		if err != nil {
			return false
		}
		ex, err := psioa.Explore(p, 500)
		if err != nil {
			// Random automata can clash (shared internal/output names are
			// prevented by id-suffixing, so this should not happen).
			return false
		}
		for _, q := range ex.States {
			for act := range ex.Sigs[q].All() {
				if !p.Trans(q, act).IsProb() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestComposeCommutativeQuick: A‖B and B‖A have isomorphic reachable
// fragments (equal counts and equal action universes) — composition is
// commutative up to component order.
func TestComposeCommutativeQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		a1 := genAut("r1", seed, 4, 3)
		a2 := genAut("r2", seed^0x1234, 4, 3)
		p12 := psioa.MustCompose(a1, a2)
		p21 := psioa.MustCompose(a2, a1)
		e12, err1 := psioa.Explore(p12, 500)
		e21, err2 := psioa.Explore(p21, 500)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil // both fail compatibly
		}
		return len(e12.States) == len(e21.States) && e12.Acts.Equal(e21.Acts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHidePreservesDynamicsQuick: hiding changes signatures but never
// transition measures or reachability (Def 2.7).
func TestHidePreservesDynamicsQuick(t *testing.T) {
	prop := func(seed uint64, pick uint8) bool {
		a := genAut("r", seed, 5, 4)
		ex, err := psioa.Explore(a, 1000)
		if err != nil {
			return false
		}
		// Hide one arbitrary reachable action.
		acts := ex.Acts.Sorted()
		if len(acts) == 0 {
			return true
		}
		hidden := psioa.NewActionSet(acts[int(pick)%len(acts)])
		h := psioa.HideSet(a, hidden)
		exh, err := psioa.Explore(h, 1000)
		if err != nil {
			return false
		}
		if len(ex.States) != len(exh.States) || !ex.Acts.Equal(exh.Acts) {
			return false
		}
		for _, q := range ex.States {
			for act := range ex.Sigs[q].All() {
				da, dh := a.Trans(q, act), h.Trans(q, act)
				for _, q2 := range da.Support() {
					if math.Abs(da.P(q2)-dh.P(q2)) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRenameRoundTripQuick: renaming with a fresh bijection and renaming
// back is the identity on signatures and transitions (Lemma A.1).
func TestRenameRoundTripQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		a := genAut("r", seed, 5, 4)
		ex, err := psioa.Explore(a, 1000)
		if err != nil {
			return false
		}
		m := psioa.FreshRenaming("g_", ex.Acts)
		inv := psioa.InvertRenaming(m)
		rr := psioa.RenameMap(psioa.RenameMap(a, m), inv)
		for _, q := range ex.States {
			if !rr.Sig(q).Equal(a.Sig(q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExploreDeterministicQuick: exploration is deterministic — two runs
// produce identical state sequences.
func TestExploreDeterministicQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		a := genAut("r", seed, 6, 4)
		e1, err1 := psioa.Explore(a, 1000)
		e2, err2 := psioa.Explore(a, 1000)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		if len(e1.States) != len(e2.States) {
			return false
		}
		for i := range e1.States {
			if e1.States[i] != e2.States[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAtomTransparencyQuick: wrapping in Atom changes nothing about the
// automaton's behaviour, only its composition granularity.
func TestAtomTransparencyQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		a := genAut("r", seed, 5, 3)
		w := psioa.Atom(a)
		if w.ID() != a.ID() || w.Start() != a.Start() {
			return false
		}
		ex, err := psioa.Explore(a, 500)
		if err != nil {
			return false
		}
		for _, q := range ex.States {
			if !w.Sig(q).Equal(a.Sig(q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAtomPreventsFlattening: composing Atom-wrapped products keeps the
// pair structure.
func TestAtomPreventsFlattening(t *testing.T) {
	a := testaut.Coin("a", 0.5)
	b := testaut.Coin("b", 0.5)
	c := testaut.Coin("c", 0.5)
	inner := psioa.MustCompose(a, b)
	flat := psioa.MustCompose(inner, c)
	if len(flat.Components()) != 3 {
		t.Fatalf("flattened components = %d", len(flat.Components()))
	}
	paired := psioa.MustCompose(psioa.Atom(inner), c)
	if len(paired.Components()) != 2 {
		t.Fatalf("atom-paired components = %d", len(paired.Components()))
	}
	// Behaviour identical: same reachable count.
	e1, _ := psioa.Explore(flat, 1000)
	e2, _ := psioa.Explore(paired, 1000)
	if len(e1.States) != len(e2.States) {
		t.Errorf("states %d vs %d", len(e1.States), len(e2.States))
	}
}

// TestRandomWalkHitProbability sanity-checks the generator workloads: a
// symmetric walk of length 2 hits the end with the known probability under
// greedy run-to-completion scheduling... the walk is absorbing, so
// eventually hits with probability 1 given enough budget.
func TestRandomWalkHitProbability(t *testing.T) {
	w := testaut.RandomWalk("w", 2, 0.5)
	if err := psioa.Validate(w, 100); err != nil {
		t.Fatal(err)
	}
	reached, err := psioa.Reachable(w, "end", 100)
	if err != nil || !reached {
		t.Errorf("end unreachable: %v", err)
	}
}

// TestRandomSpecDefaults exercises the generator's defaulting.
func TestRandomSpecDefaults(t *testing.T) {
	stream := rng.New(1)
	a := testaut.RandomAutomaton("d", testaut.RandomSpec{}, stream.Uint64)
	if err := psioa.Validate(a, 100); err != nil {
		t.Fatal(err)
	}
}

// TestRandomAutomataDistinctSeeds: different seeds give different automata
// (almost always) — guards against a degenerate generator.
func TestRandomAutomataDistinctSeeds(t *testing.T) {
	same := 0
	for i := 0; i < 10; i++ {
		a := genAut("r", uint64(i), 6, 4)
		b := genAut("r", uint64(i)+1000, 6, 4)
		ea, _ := psioa.Explore(a, 100)
		eb, _ := psioa.Explore(b, 100)
		if fmt.Sprint(ea.Acts) == fmt.Sprint(eb.Acts) && len(ea.States) == len(eb.States) {
			same++
		}
	}
	if same == 10 {
		t.Error("generator appears seed-independent")
	}
}
