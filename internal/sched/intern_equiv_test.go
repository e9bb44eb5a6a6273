package sched_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// These tests pin the interned-core refactor (ROADMAP item 2): the kernels
// now run on dense intern IDs internally, and these properties check them
// bit for bit against independent string-keyed reference implementations
// on random automata. Bitwise — not approximate — equality is the
// contract: interning changes representation, never a float operation or
// its order.

// refMeasure is the pre-interning depth-first tree kernel, reimplemented
// here over string-keyed maps as an independent reference: same pruning,
// same (action, successor) child order, halts keyed by fragment key, cone
// masses accumulated in sorted halted-key order over parent chains.
type refMeasure struct {
	halts map[string]float64
	cones map[string]float64
	total float64
}

func refExpand(a psioa.PSIOA, s sched.Scheduler, maxDepth int) (*refMeasure, error) {
	rm := &refMeasure{halts: map[string]float64{}, cones: map[string]float64{}}
	type item struct {
		f *psioa.Frag
		p float64
	}
	haltFrag := map[string]*psioa.Frag{}
	stack := []item{{psioa.NewFrag(a.Start()), 1}}
	if maxDepth <= 0 {
		// Depth 0: the Dirac measure on the start fragment, σ unconsulted.
		k := stack[0].f.Key()
		rm.halts[k], rm.cones[k], rm.total = 1, 1, 1
		return rm, nil
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f, p := it.f, it.p
		if p < 1e-15 {
			continue
		}
		choice := s.Choose(f)
		if !choice.IsSubProb() {
			return nil, fmt.Errorf("over-mass at %v", f)
		}
		if halt := choice.Deficit(); halt > 1e-15 {
			k := f.Key()
			rm.halts[k] += p * halt
			haltFrag[k] = f
		}
		if choice.Total() <= 1e-15 {
			continue
		}
		if f.Len() >= maxDepth {
			return nil, fmt.Errorf("depth exceeded at %v", f)
		}
		var kids []item
		lst := f.LState()
		for _, act := range choice.SortedSupport() {
			pa := choice.P(act)
			if pa <= 0 {
				continue
			}
			eta := a.Trans(lst, act)
			for _, q2 := range eta.SortedSupport() {
				pq := eta.P(q2)
				if pq <= 0 {
					continue
				}
				kids = append(kids, item{f.Extend(act, q2), p * pa * pq})
			}
		}
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	keys := make([]string, 0, len(rm.halts))
	for k := range rm.halts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rm.total += rm.halts[k]
		for g := haltFrag[k]; g != nil; g = g.Parent() {
			rm.cones[g.Key()] += rm.halts[k]
		}
	}
	return rm, nil
}

// diffRef compares a kernel measure bitwise against the reference — total,
// support, every halted mass and every cone mass over the expansion tree —
// and describes the first difference, or returns "" when they agree.
func diffRef(em *sched.ExecMeasure, ref *refMeasure) string {
	if em.Total() != ref.total {
		return fmt.Sprintf("total %v != ref %v", em.Total(), ref.total)
	}
	if em.Len() != len(ref.halts) {
		return fmt.Sprintf("support %d != ref %d", em.Len(), len(ref.halts))
	}
	var msg string
	em.ForEach(func(f *psioa.Frag, p float64) {
		if rp := ref.halts[f.Key()]; rp != p && msg == "" {
			msg = fmt.Sprintf("halt %q mass %v != ref %v", f.Key(), p, rp)
		}
	})
	prefixes := 0
	em.ForEachPrefix(func(f *psioa.Frag) {
		prefixes++
		if c, rc := em.Cone(f), ref.cones[f.Key()]; c != rc && msg == "" {
			msg = fmt.Sprintf("cone(%q) %v != ref %v", f.Key(), c, rc)
		}
	})
	if msg == "" && prefixes != len(ref.cones) {
		msg = fmt.Sprintf("%d tree nodes != ref %d", prefixes, len(ref.cones))
	}
	return msg
}

func internEquivScheduler(a *psioa.Table, pick uint8) sched.Scheduler {
	switch pick % 3 {
	case 0:
		return &sched.Greedy{A: a, Bound: 5, LocalOnly: true}
	case 1:
		return &sched.Random{A: a, Bound: 5, LocalOnly: true}
	default:
		return &sched.Priority{A: a, Bound: 5, LocalOnly: true,
			Order: []psioa.Action{"a0_r", "a1_r", "a2_r", "a3_r"}}
	}
}

// TestInternedMeasureMatchesReferenceQuick: the interned tree kernel
// agrees bitwise with the string-keyed reference — support keys, halted
// masses, total, and every cone mass, queried both through the measure's
// own fragment views and through fragments decoded from their keys.
func TestInternedMeasureMatchesReferenceQuick(t *testing.T) {
	prop := func(seed uint64, pick uint8) bool {
		a := randomAut(seed)
		s := internEquivScheduler(a, pick)
		em, err := sched.Measure(a, s, 6)
		if err != nil {
			t.Logf("seed %d: measure: %v", seed, err)
			return false
		}
		ref, err := refExpand(a, s, 6)
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}
		if msg := diffRef(em, ref); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		ok := true
		em.ForEachPrefix(func(f *psioa.Frag) {
			// A fragment decoded from its key, not one of the measure's
			// views: found by descending the tree, it must agree exactly.
			re, err := psioa.FragFromKey(f.Key())
			if err != nil {
				t.Logf("seed %d: FragFromKey: %v", seed, err)
				ok = false
				return
			}
			if got := em.Cone(re); got != ref.cones[f.Key()] {
				t.Logf("seed %d: foreign cone(%q) %v != ref %v", seed, f.Key(), got, ref.cones[f.Key()])
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInternIDAssignmentQuick: the measure's node IDs are dense and
// consistent with its columns — every parent precedes its children, each
// node's children are contiguous (the parent column never decreases),
// siblings end in distinct steps, and there is one node per fragment that
// ForEachPrefix visits.
func TestInternIDAssignmentQuick(t *testing.T) {
	prop := func(seed uint64, pick uint8) bool {
		a := randomAut(seed)
		em, err := sched.Measure(a, internEquivScheduler(a, pick), 6)
		if err != nil {
			return false
		}
		parent, step := sched.TreeColumns(em)
		if len(step) != len(parent) {
			t.Logf("seed %d: %d parents, %d steps", seed, len(parent), len(step))
			return false
		}
		for c := 1; c < len(parent); c++ {
			if parent[c] >= uint32(c) {
				t.Logf("seed %d: node %d has parent %d", seed, c, parent[c])
				return false
			}
			if c > 1 && parent[c] < parent[c-1] {
				t.Logf("seed %d: node %d's parent %d follows %d: siblings not contiguous", seed, c, parent[c], parent[c-1])
				return false
			}
			if c > 1 && parent[c] == parent[c-1] {
				for d := c - 1; d >= 1 && parent[d] == parent[c]; d-- {
					if step[d] == step[c] {
						t.Logf("seed %d: siblings %d and %d share step %d", seed, d, c, step[c])
						return false
					}
				}
			}
		}
		n := 0
		em.ForEachPrefix(func(*psioa.Frag) { n++ })
		if n != len(parent) {
			t.Logf("seed %d: %d prefixes visited, %d nodes", seed, n, len(parent))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelMergeDeterminismQuick: the sharded kernel merges to a
// bitwise-identical measure at every worker count — same support order,
// same masses, same cone masses — on random (non-dyadic) workloads where
// any reordering of float sums would show.
func TestParallelMergeDeterminismQuick(t *testing.T) {
	prop := func(seed uint64, pick uint8) bool {
		a := randomAut(seed)
		s := internEquivScheduler(a, pick)
		base, err := sched.MeasureOpts(context.Background(), a, s, 6, nil, sched.Options{Workers: 1})
		if err != nil {
			return false
		}
		type line struct {
			k string
			p float64
		}
		render := func(em *sched.ExecMeasure) []line {
			var out []line
			em.ForEach(func(f *psioa.Frag, p float64) {
				out = append(out, line{f.Key(), p})
			})
			em.ForEachPrefix(func(f *psioa.Frag) {
				out = append(out, line{"C" + f.Key(), em.Cone(f)})
			})
			out = append(out, line{"T", em.Total()})
			return out
		}
		want := render(base)
		for _, w := range []int{2, 3, 8} {
			em, err := sched.MeasureOpts(context.Background(), a, s, 6, nil, sched.Options{Workers: w})
			if err != nil {
				t.Logf("seed %d workers %d: %v", seed, w, err)
				return false
			}
			got := render(em)
			if len(got) != len(want) {
				t.Logf("seed %d workers %d: %d lines != %d", seed, w, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d workers %d: line %d %v != %v", seed, w, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refDAG is the pre-interning map-keyed DAG propagation, reimplemented as
// an independent reference: map frontiers with sorted-state level order
// and (state, action, successor) sorted accumulation.
func refDAG(a psioa.PSIOA, s sched.DepthOblivious, maxDepth int) (halts [][3]interface{}, total float64, err error) {
	cur := map[psioa.State]float64{a.Start(): 1}
	order := []psioa.State{a.Start()}
	for d := 0; len(order) > 0; d++ {
		next := map[psioa.State]float64{}
		var nextOrder []psioa.State
		for _, q := range order {
			m := cur[q]
			if m < 1e-15 {
				continue
			}
			choice := s.ChooseAt(q, d)
			if !choice.IsSubProb() {
				return nil, 0, fmt.Errorf("over-mass at %q", q)
			}
			if halt := choice.Deficit(); halt > 1e-15 {
				halts = append(halts, [3]interface{}{q, d, m * halt})
				total += m * halt
			}
			if choice.Total() <= 1e-15 {
				continue
			}
			if d >= maxDepth {
				return nil, 0, fmt.Errorf("depth exceeded at %q", q)
			}
			for _, act := range choice.SortedSupport() {
				pa := choice.P(act)
				if pa <= 0 {
					continue
				}
				eta := a.Trans(q, act)
				for _, q2 := range eta.SortedSupport() {
					pq := eta.P(q2)
					if pq <= 0 {
						continue
					}
					if _, seen := next[q2]; !seen {
						nextOrder = append(nextOrder, q2)
					}
					next[q2] += m * pa * pq
				}
			}
		}
		sort.Slice(nextOrder, func(i, j int) bool { return nextOrder[i] < nextOrder[j] })
		cur, order = next, nextOrder
	}
	return halts, total, nil
}

// TestInternedDAGMatchesReferenceQuick: the interned DAG kernel (dense
// epoch-marked mass vectors) agrees bitwise with the map-keyed reference
// propagation — per-class halting masses in the same order, same totals —
// and with the tree kernel's total up to float summation order.
func TestInternedDAGMatchesReferenceQuick(t *testing.T) {
	prop := func(seed uint64, pick uint8) bool {
		a := randomAut(seed)
		s := internEquivScheduler(a, pick)
		dob, ok := sched.AsDepthOblivious(s)
		if !ok {
			t.Logf("scheduler not depth-oblivious")
			return false
		}
		dm, err := sched.MeasureDAGOpts(context.Background(), a, dob, 6, nil, sched.Options{})
		if err != nil {
			return false
		}
		refHalts, refTotal, err := refDAG(a, dob, 6)
		if err != nil {
			return false
		}
		if dm.Total() != refTotal {
			t.Logf("seed %d: dag total %v != ref %v", seed, dm.Total(), refTotal)
			return false
		}
		if dm.Classes() != len(refHalts) {
			t.Logf("seed %d: classes %d != ref %d", seed, dm.Classes(), len(refHalts))
			return false
		}
		i, good := 0, true
		dm.ForEach(func(q psioa.State, depth int, p float64) {
			h := refHalts[i]
			if q != h[0].(psioa.State) || depth != h[1].(int) || p != h[2].(float64) {
				t.Logf("seed %d: class %d (%q,%d,%v) != ref (%v,%v,%v)", seed, i, q, depth, p, h[0], h[1], h[2])
				good = false
			}
			i++
		})
		if !good {
			return false
		}
		em, err := sched.Measure(a, s, 6)
		if err != nil {
			return false
		}
		return math.Abs(dm.Total()-em.Total()) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSharedCachesConcurrentMeasure drives concurrent measures of one
// shared composed product through the shared memo tables (the read-mostly
// Dirac choice cache and the product's mutex-guarded state table). Under
// -race this is the soundness check for the lock-free snapshot reads the
// interned core introduced.
func TestSharedCachesConcurrentMeasure(t *testing.T) {
	c1 := testaut.RandomAutomaton("c1", testaut.RandomSpec{States: 4, Actions: 3, Branch: 2, InputShare: 0.3}, rng.New(7).Uint64)
	c2 := testaut.RandomAutomaton("c2", testaut.RandomSpec{States: 4, Actions: 3, Branch: 2, InputShare: 0.3}, rng.New(11).Uint64)
	prod, err := psioa.Compose(c1, c2)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	s := &sched.Random{A: prod, Bound: 5, LocalOnly: true}
	want, err := sched.Measure(prod, s, 6)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				em, err := sched.MeasureOpts(context.Background(), prod, s, 6, nil, sched.Options{Workers: 1 + g%3})
				if err != nil {
					errs[g] = err
					return
				}
				if em.Total() != want.Total() || em.Len() != want.Len() {
					errs[g] = fmt.Errorf("goroutine %d: total %v len %d != %v/%d", g, em.Total(), em.Len(), want.Total(), want.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
