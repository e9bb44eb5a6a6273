package psioa_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/testaut"
)

// refExplore is the exploration Explore replaced: the same bounded BFS,
// but every successor comes from the built transition measure's sorted
// support, Trans(q, a).SortedSupport().
func refExplore(a psioa.PSIOA, limit int) (*psioa.Exploration, error) {
	ex := &psioa.Exploration{Sigs: make(map[psioa.State]psioa.Signature), Acts: psioa.NewActionSet()}
	start := a.Start()
	queue := []psioa.State{start}
	seen := map[psioa.State]bool{start: true}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if cc, ok := a.(interface{ CompatAt(psioa.State) error }); ok {
			if err := cc.CompatAt(q); err != nil {
				return nil, err
			}
		}
		sig := a.Sig(q)
		ex.States = append(ex.States, q)
		ex.Sigs[q] = sig
		for _, act := range psioa.SortedAll(sig) {
			ex.Acts.Add(act)
			for _, q2 := range a.Trans(q, act).SortedSupport() {
				if !seen[q2] {
					if len(seen) >= limit {
						ex.Truncated = true
						continue
					}
					seen[q2] = true
					queue = append(queue, q2)
				}
			}
		}
	}
	return ex, nil
}

// sameExploration fails t unless got and want agree on discovery order,
// signatures, reachable actions and truncation.
func sameExploration(t *testing.T, what string, got, want *psioa.Exploration) {
	t.Helper()
	if !reflect.DeepEqual(got.States, want.States) {
		t.Fatalf("%s: States differ:\n got %q\nwant %q", what, got.States, want.States)
	}
	for _, q := range want.States {
		if !got.Sigs[q].Equal(want.Sigs[q]) {
			t.Fatalf("%s: Sigs[%q] = %v, want %v", what, q, got.Sigs[q], want.Sigs[q])
		}
	}
	if len(got.Sigs) != len(want.Sigs) {
		t.Fatalf("%s: %d signatures, want %d", what, len(got.Sigs), len(want.Sigs))
	}
	if !reflect.DeepEqual(got.Acts.Sorted(), want.Acts.Sorted()) {
		t.Fatalf("%s: Acts = %v, want %v", what, got.Acts, want.Acts)
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: Truncated = %v, want %v", what, got.Truncated, want.Truncated)
	}
}

func randomAut(id string, seed uint64) *psioa.Table {
	return testaut.RandomAutomaton(id, testaut.RandomSpec{
		States: 6, Actions: 4, Branch: 3, InputShare: 0.3,
	}, rng.New(seed).Uint64)
}

// walkWorlds are products from testaut, bare and under the Hidden and
// Atomic wrappers, plus a Renamed product, which Explore does not unwrap.
// Each call builds fresh automata, so no two explorations share caches.
func walkWorlds() []struct {
	name string
	mk   func() psioa.PSIOA
} {
	openCoin := func(id string) *psioa.Product {
		return psioa.MustCompose(testaut.OpenCoin(id, 0.5), testaut.CoinEnv(id))
	}
	return []struct {
		name string
		mk   func() psioa.PSIOA
	}{
		{"coins", func() psioa.PSIOA {
			return psioa.MustCompose(testaut.Coin("c0", 0.5), testaut.Coin("c1", 0.25), testaut.Coin("c2", 0.5))
		}},
		{"open-coin", func() psioa.PSIOA { return openCoin("x") }},
		{"ping-pong", func() psioa.PSIOA { p, q := testaut.PingPong(3); return psioa.MustCompose(p, q) }},
		{"counters", func() psioa.PSIOA {
			return psioa.MustCompose(testaut.Counter("c", 4), testaut.Counter("d", 3), testaut.Coin("e", 0.5))
		}},
		{"random", func() psioa.PSIOA {
			return psioa.MustCompose(randomAut("r0", 1), randomAut("r1", 2), randomAut("r2", 3))
		}},
		{"hidden", func() psioa.PSIOA {
			return psioa.HideSet(openCoin("x"), psioa.NewActionSet("heads_x", "tails_x"))
		}},
		{"atomic", func() psioa.PSIOA { return psioa.Atom(openCoin("x")) }},
		{"nested-atomic", func() psioa.PSIOA {
			return psioa.MustCompose(psioa.Atom(openCoin("x")), testaut.Coin("y", 0.25), psioa.Atom(openCoin("z")))
		}},
		{"hidden-atomic", func() psioa.PSIOA {
			inner := psioa.MustCompose(psioa.Atom(openCoin("x")), randomAut("r", 7))
			return psioa.HideSet(psioa.Atom(inner), psioa.NewActionSet("go_x"))
		}},
		{"renamed", func() psioa.PSIOA {
			return psioa.RenameMap(openCoin("x"), map[psioa.Action]psioa.Action{"go_x": "start_x"})
		}},
	}
}

func TestExploreWalkMatchesReference(t *testing.T) {
	for _, w := range walkWorlds() {
		for _, limit := range []int{100000, 2, 5, 17} {
			what := fmt.Sprintf("%s/limit=%d", w.name, limit)
			want, err := refExplore(w.mk(), limit)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			// Cold: every successor comes from the support walk.
			a := w.mk()
			got, err := psioa.Explore(a, limit)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameExploration(t, what+"/cold", got, want)
			if p := psioa.ProductOf(a); p != nil && p.TransCacheLen() != 0 {
				t.Fatalf("%s: exploring cached %d product transitions, want none", what, p.TransCacheLen())
			}
			// Warm: the transitions the reference built are read back from
			// the product's cache.
			warm := w.mk()
			if _, err := refExplore(warm, limit); err != nil {
				t.Fatal(err)
			}
			got, err = psioa.Explore(warm, limit)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameExploration(t, what+"/warm", got, want)
			// Partly warm: cached transitions for the first few states, the
			// walk for the rest.
			part := w.mk()
			if _, err := refExplore(part, 3); err != nil {
				t.Fatal(err)
			}
			got, err = psioa.Explore(part, limit)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameExploration(t, what+"/part", got, want)
		}
	}
}

// syncAut generates a random automaton that outputs only from out and
// takes inputs only from in, with one private internal action. Components
// with disjoint out sets are compatible everywhere, and they synchronise
// wherever one's output is another's current input. State names contain
// the tuple codec's separator, its escape and its empty-tuple sentinel, so
// product states exercise every escape path.
func syncAut(id string, out, in []psioa.Action, seed uint64) *psioa.Table {
	r := rng.New(seed)
	pick := func(n int) int { return int(r.Uint64() % uint64(n)) }
	states := []psioa.State{"()", "s|1", `s\2`, "s3", `|\|`}
	acts := append(append([]psioa.Action{psioa.Action("int_" + id)}, out...), in...)
	b := psioa.NewBuilder(id, states[0])
	for _, q := range states {
		var sig [3][]psioa.Action
		var enabled []psioa.Action
		for k, a := range acts {
			if pick(2) == 0 {
				continue
			}
			role := 2 // internal
			if k > len(out) {
				role = 0
			} else if k > 0 {
				role = 1
			}
			sig[role] = append(sig[role], a)
			enabled = append(enabled, a)
		}
		b.AddState(q, psioa.NewSignature(sig[0], sig[1], sig[2]))
		for _, a := range enabled {
			d := measure.New[psioa.State]()
			mass := 1.0
			for j := pick(3); j > 0; j-- {
				mass /= 2
				d.Add(states[pick(len(states))], mass)
			}
			d.Add(states[pick(len(states))], mass)
			b.AddTrans(q, a, d)
		}
	}
	return b.MustBuild()
}

// TestExploreWalkRandomProducts runs the differential check over products
// of random synchronising automata, bare and wrapped.
func TestExploreWalkRandomProducts(t *testing.T) {
	m := []psioa.Action{"m0", "m1"}
	n := []psioa.Action{"n0", "n1"}
	o := []psioa.Action{"o0"}
	for seed := uint64(1); seed <= 40; seed++ {
		mk := func() psioa.PSIOA {
			u := syncAut("u", m, append(n, o...), 3*seed)
			v := syncAut("v", n, append(m, o...), 3*seed+1)
			w := syncAut("w", o, m, 3*seed+2)
			switch seed % 3 {
			case 0:
				return psioa.MustCompose(u, v, w)
			case 1:
				return psioa.HideSet(psioa.MustCompose(u, v, w), psioa.NewActionSet("m0", "n1"))
			default:
				return psioa.MustCompose(psioa.Atom(psioa.MustCompose(u, v)), w)
			}
		}
		for _, limit := range []int{100000, 2, 5, 17} {
			what := fmt.Sprintf("seed=%d/limit=%d", seed, limit)
			want, err := refExplore(mk(), limit)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			got, err := psioa.Explore(mk(), limit)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameExploration(t, what, got, want)
		}
	}
}

// TestExploreWalkIncompatibleWorld pins the error for a world that becomes
// incompatible at a reachable state: a's output x clashes with b's once a
// has ticked. Explore must stop with the product's own CompatAt error, bare
// and under a hiding wrapper.
func TestExploreWalkIncompatibleWorld(t *testing.T) {
	mk := func() *psioa.Product {
		a := psioa.NewBuilder("a", "a0").
			AddState("a0", psioa.NewSignature(nil, nil, []psioa.Action{"tick"})).
			AddState("a1", psioa.NewSignature(nil, []psioa.Action{"x"}, nil)).
			AddDet("a0", "tick", "a1").
			AddDet("a1", "x", "a1").
			MustBuild()
		b := psioa.NewBuilder("b", "b0").
			AddState("b0", psioa.NewSignature(nil, []psioa.Action{"x"}, nil)).
			AddDet("b0", "x", "b0").
			MustBuild()
		return psioa.MustCompose(a, b)
	}
	p := mk()
	clash := p.Join([]psioa.State{"a1", "b0"})
	want := mk().CompatAt(clash)
	if want == nil {
		t.Fatal("fixture is compatible at the clash state")
	}
	for _, a := range []psioa.PSIOA{p, psioa.HideSet(mk(), psioa.NewActionSet("x")), psioa.Atom(mk())} {
		ex, err := psioa.Explore(a, 100)
		if ex != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: Explore = (%v, %v), want error %q", a.ID(), ex, err, want)
		}
		if _, rerr := refExplore(a, 100); rerr == nil || rerr.Error() != want.Error() {
			t.Fatalf("%s: reference error %v, want %q", a.ID(), rerr, want)
		}
	}
}

// TestProductTransConcurrent: goroutines that build the transitions of one
// product at once (sharing its reusable enumerator) get the same measures,
// bit for bit, as a product built alone.
func TestProductTransConcurrent(t *testing.T) {
	mk := func() psioa.PSIOA {
		return psioa.MustCompose(syncAut("u", []psioa.Action{"m0"}, []psioa.Action{"n0"}, 5),
			syncAut("v", []psioa.Action{"n0"}, []psioa.Action{"m0"}, 6), testaut.Coin("c", 0.25))
	}
	type tr struct {
		q psioa.State
		a psioa.Action
	}
	ref := mk()
	ex, err := psioa.Explore(ref, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var trs []tr
	want := map[tr]string{}
	for _, q := range ex.States {
		for _, a := range psioa.SortedAll(ex.Sigs[q]) {
			trs = append(trs, tr{q, a})
			want[tr{q, a}] = fmt.Sprint(ref.Trans(q, a).SupportAndProbs())
		}
	}
	shared := mk()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range trs {
				x := trs[(k+7*g)%len(trs)]
				if got := fmt.Sprint(shared.Trans(x.q, x.a).SupportAndProbs()); got != want[x] {
					t.Errorf("Trans(%q, %q) = %s, want %s", x.q, x.a, got, want[x])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
