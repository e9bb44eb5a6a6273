package sched_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// referenceEnabled sorts the candidate actions of sig, without duplicates.
func referenceEnabled(sig psioa.Signature, localOnly bool) []psioa.Action {
	var acts []psioa.Action
	sets := []psioa.ActionSet{sig.Out, sig.Int}
	if !localOnly {
		sets = append(sets, sig.In)
	}
	for _, set := range sets {
		for a := range set {
			if !slices.Contains(acts, a) {
				acts = append(acts, a)
			}
		}
	}
	slices.Sort(acts)
	return acts
}

// sameChoice reports whether two choices have the same support and bit
// for bit the same masses.
func sameChoice(got, want *sched.Choice) bool {
	gk, gp := got.SupportAndProbs()
	wk, wp := want.SupportAndProbs()
	if !slices.Equal(gk, wk) || len(gp) != len(wp) {
		return false
	}
	for i := range gp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			return false
		}
	}
	return true
}

// checkChoices holds Greedy's choice at sig to the Dirac on the first
// action of the reference sort, and Random's to the uniform measure over
// it; both halt when nothing is enabled.
func checkChoices(t *testing.T, sig psioa.Signature) bool {
	t.Helper()
	ok := true
	for _, local := range []bool{false, true} {
		a := testaut.SigAut{S: sig}
		ref := referenceEnabled(sig, local)
		g := (&sched.Greedy{A: a, Bound: 1, LocalOnly: local}).ChooseAt(a.Start(), 0)
		r := (&sched.Random{A: a, Bound: 1, LocalOnly: local}).ChooseAt(a.Start(), 0)
		wantG, wantR := sched.Halt(), sched.Halt()
		if len(ref) > 0 {
			wantG, wantR = measure.Dirac(ref[0]), measure.Uniform(ref)
		}
		if !sameChoice(g, wantG) {
			t.Errorf("Greedy at %v (local %v): %v, want %v", sig, local, g, wantG)
			ok = false
		}
		if !sameChoice(r, wantR) {
			t.Errorf("Random at %v (local %v): %v, want %v", sig, local, r, wantR)
			ok = false
		}
	}
	return ok
}

// TestChoicesMatchReferenceSort: on random signatures, overlapping ones
// included, and on empty ones, Greedy picks the least enabled action and
// Random is uniform over the sorted enabled actions.
func TestChoicesMatchReferenceSort(t *testing.T) {
	checkChoices(t, psioa.EmptySignature())
	checkChoices(t, psioa.Signature{})
	prop := func(seed uint64) bool { return checkChoices(t, testaut.RandomSig(seed)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
