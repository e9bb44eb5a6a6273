package sched_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// The ordered views of an ExecMeasure come from a walk over the expansion
// tree, not from sorting keys. These tests check that walk against
// sort.Strings over Key() on automata whose names attack the key order:
// sibling names where one is a prefix of the other (x1/x10), names holding
// the tuple separator or the escape byte, the empty-tuple sentinel, the
// empty name, and bytes on either side of '|' (testaut.AdversarialAut).

// adversarialAut is the generator the key-order tests run on.
func adversarialAut(seed uint64) *psioa.Table { return testaut.AdversarialAut(seed) }

// adversarialScheds covers uniform branching over actions, a deterministic
// pick, and a mixture whose deficit makes interior nodes halt too.
func adversarialScheds(a psioa.PSIOA) []sched.Scheduler {
	return []sched.Scheduler{
		&sched.Random{A: a, Bound: 5},
		&sched.Greedy{A: a, Bound: 6},
		&sched.Mix{Weights: []float64{0.5, 0.3}, Inner: []sched.Scheduler{
			&sched.Random{A: a, Bound: 4}, &sched.Greedy{A: a, Bound: 5}}},
	}
}

// checkKeyOrder fails when ForEach or ForEachPrefix does not visit the keys
// in sort.Strings order, or visits a key twice.
func checkKeyOrder(em *sched.ExecMeasure) error {
	var halts, prefixes []string
	em.ForEach(func(f *psioa.Frag, _ float64) { halts = append(halts, f.Key()) })
	em.ForEachPrefix(func(f *psioa.Frag) { prefixes = append(prefixes, f.Key()) })
	if len(halts) != em.Len() {
		return fmt.Errorf("ForEach visited %d executions, Len is %d", len(halts), em.Len())
	}
	for name, got := range map[string][]string{"ForEach": halts, "ForEachPrefix": prefixes} {
		want := slices.Clone(got)
		sort.Strings(want)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s position %d: %q, sorted keys have %q", name, i, got[i], want[i])
			}
			if i > 0 && want[i] == want[i-1] {
				return fmt.Errorf("%s visits %q twice", name, want[i])
			}
		}
	}
	return nil
}

// prunedBranches counts the successors below the expansion's pruning
// threshold that scheduled transitions of em's tree lead to.
func prunedBranches(a psioa.PSIOA, s sched.Scheduler, em *sched.ExecMeasure) int {
	n := 0
	em.ForEachPrefix(func(f *psioa.Frag) {
		s.Choose(f).ForEach(func(act psioa.Action, _ float64) {
			a.Trans(f.LState(), act).ForEach(func(_ psioa.State, p float64) {
				if p < 1e-15 {
					n++
				}
			})
		})
	})
	return n
}

// TestKeyOrderWalkMatchesSortedKeys: on adversarially named random
// automata, at workers 1, 2 and 8, complete and budget-stopped partial
// measures visit their executions and prefixes in sort.Strings order.
func TestKeyOrderWalkMatchesSortedKeys(t *testing.T) {
	ctx := context.Background()
	partials, pruned := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		a := adversarialAut(seed)
		for _, s := range adversarialScheds(a) {
			for _, w := range []int{1, 2, 8} {
				em, err := sched.MeasureOpts(ctx, a, s, 8, nil, sched.Options{Workers: w})
				if err != nil {
					t.Fatalf("seed %d %s workers %d: %v", seed, s.Name(), w, err)
				}
				if err := checkKeyOrder(em); err != nil {
					t.Fatalf("seed %d %s workers %d: %v", seed, s.Name(), w, err)
				}
				if w == 1 {
					pruned += prunedBranches(a, s, em)
				}
				b := resilience.NewBudget(300, 0, 0)
				part, err := sched.MeasureOpts(ctx, a, s, 8, b, sched.Options{Workers: w})
				if err == nil {
					continue
				}
				if !errors.Is(err, resilience.ErrBudgetExceeded) || part == nil {
					t.Fatalf("seed %d %s workers %d: budget stop returned %v, %v", seed, s.Name(), w, part, err)
				}
				partials++
				if err := checkKeyOrder(part); err != nil {
					t.Fatalf("seed %d %s workers %d partial: %v", seed, s.Name(), w, err)
				}
			}
		}
	}
	if partials == 0 || pruned == 0 {
		t.Fatalf("coverage: %d budget-stopped partials, %d measures with pruned mass; want both > 0", partials, pruned)
	}
}

// TestKeyOrderPrefixSiblings pins the case that separates the key order
// from a depth-first walk: sibling states x1 and x10 both extend, and the
// block below x10 sorts between x1 and the block below x1.
func TestKeyOrderPrefixSiblings(t *testing.T) {
	b := psioa.NewBuilder("sib", "s")
	step := []psioa.Action{"a"}
	b.AddState("s", psioa.NewSignature(nil, step, nil))
	b.AddCoin("s", "a", "x1", "x10")
	for _, q := range []psioa.State{"x1", "x10"} {
		b.AddState(q, psioa.NewSignature(nil, step, nil))
		b.AddDet(q, "a", "t")
	}
	b.AddState("t", psioa.EmptySignature())
	a := b.MustBuild()
	em, err := sched.Measure(a, &sched.Greedy{A: a, Bound: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	em.ForEachPrefix(func(f *psioa.Frag) { got = append(got, f.Key()) })
	want := []string{"s", "s|a|x1", "s|a|x10", "s|a|x10|a|t", "s|a|x1|a|t"}
	if !slices.Equal(got, want) {
		t.Fatalf("prefix order %q, want %q", got, want)
	}
}
