package psioa_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/protocols/dynchannel"
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

// nestedWorlds are products with a product component under Hidden and
// Atomic wrappers, whose successors come from the nested product's table:
// x‖hide(u‖v), x‖Atom(hide(u‖v)‖w), a state-dependent hiding inside a
// product, and the dynamic channel world env‖hide(host‖adv) at one
// session. u, v, w and x are random synchronising automata (see syncAut).
func nestedWorlds() []struct {
	name  string
	seeds uint64 // how many seeds give distinct worlds
	mk    func(seed uint64) psioa.PSIOA
} {
	m := []psioa.Action{"m0", "m1"}
	n := []psioa.Action{"n0", "n1"}
	o := []psioa.Action{"o0"}
	uv := func(seed uint64) *psioa.Product {
		return psioa.MustCompose(syncAut("u", m, append(n, o...), 4*seed), syncAut("v", n, append(m, o...), 4*seed+1))
	}
	x := func(seed uint64) *psioa.Table { return syncAut("x", o, []psioa.Action{"m1", "n0"}, 4*seed+2) }
	hidden := psioa.NewActionSet("m0", "n1")
	return []struct {
		name  string
		seeds uint64
		mk    func(seed uint64) psioa.PSIOA
	}{
		{"x||hide(u||v)", 8, func(seed uint64) psioa.PSIOA {
			return psioa.MustCompose(x(seed), psioa.HideSet(uv(seed), hidden))
		}},
		{"x||Atom(hide(u||v)||w)", 8, func(seed uint64) psioa.PSIOA {
			w := syncAut("w", []psioa.Action{"p0"}, o, 4*seed+3)
			return psioa.MustCompose(x(seed), psioa.Atom(psioa.MustCompose(psioa.HideSet(uv(seed), hidden), w)))
		}},
		{"x||hide_q(u||v)", 8, func(seed uint64) psioa.PSIOA {
			// The hidden set depends on the state: m0 at states whose
			// encoding has even length, n1 at the others.
			return psioa.MustCompose(x(seed), psioa.Hide(uv(seed), func(q psioa.State) psioa.ActionSet {
				if len(q)%2 == 0 {
					return psioa.NewActionSet("m0")
				}
				return psioa.NewActionSet("n1")
			}))
		}},
		{"env||hide(host||adv)", 1, func(uint64) psioa.PSIOA {
			host := dynchannel.Host("d", 1, dynchannel.RealKind)
			left, err := core.HideAAct(host, dynchannel.Adversary("d", 1), 1000)
			if err != nil {
				panic(err)
			}
			return psioa.MustCompose(dynchannel.Env("d", []int{1}), left)
		}},
	}
}

// noProductMeasures fails t if exploring a built a transition measure in
// its product or in any product nested in it.
func noProductMeasures(t *testing.T, what string, a psioa.PSIOA) {
	t.Helper()
	p := psioa.ProductOf(a)
	if p == nil {
		return
	}
	if n := p.TransCacheLen(); n != 0 {
		t.Fatalf("%s: exploring cached %d transitions of %s, want none", what, n, p.ID())
	}
	for _, c := range p.Components() {
		noProductMeasures(t, what, c)
	}
}

// checkWalk runs the differential check on fresh automata from mk: Explore
// must match refExplore cold (every successor from the table walk), warm
// (after Trans on every reachable state) and half-warm (after Trans on the
// first few states).
func checkWalk(t *testing.T, what string, mk func() psioa.PSIOA, limit int) {
	t.Helper()
	want, err := refExplore(mk(), limit)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	a := mk()
	got, err := psioa.Explore(a, limit)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameExploration(t, what+"/cold", got, want)
	noProductMeasures(t, what, a)
	for _, warmth := range []struct {
		name  string
		limit int
	}{{"warm", 100000}, {"part", 3}} {
		b := mk()
		if _, err := refExplore(b, warmth.limit); err != nil {
			t.Fatal(err)
		}
		got, err := psioa.Explore(b, limit)
		if err != nil {
			t.Fatalf("%s/%s: %v", what, warmth.name, err)
		}
		sameExploration(t, what+"/"+warmth.name, got, want)
	}
}

func TestExploreWalkMatchesReference(t *testing.T) {
	for _, w := range walkWorlds() {
		for _, limit := range []int{100000, 2, 5, 17} {
			checkWalk(t, fmt.Sprintf("%s/limit=%d", w.name, limit), w.mk, limit)
		}
	}
}

// TestExploreWalkNestedWorlds runs the differential check on worlds with
// nested products, whose successors come from the nested tables.
func TestExploreWalkNestedWorlds(t *testing.T) {
	for _, w := range nestedWorlds() {
		for seed := uint64(1); seed <= w.seeds; seed++ {
			mk := func() psioa.PSIOA { return w.mk(seed) }
			full, err := refExplore(mk(), 100000)
			if err != nil {
				t.Fatalf("%s/seed=%d: reference: %v", w.name, seed, err)
			}
			for _, limit := range []int{100000, 2, 5, 17, len(full.States) / 2} {
				checkWalk(t, fmt.Sprintf("%s/seed=%d/limit=%d", w.name, seed, limit), mk, limit)
			}
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

// TestExploreWalkNestedErrorParity pins the errors of two worlds that
// become incompatible at a reachable state: one only inside its hidden
// product (u's output x clashes with v's once u has ticked), one only at
// the outer level (w's output x clashes with u's). Explore must return
// the reference walk's error with no result, and Sig at the clash state
// must panic with the message it has always panicked with.
func TestExploreWalkNestedErrorParity(t *testing.T) {
	tick := func(id string, out psioa.Action) *psioa.Table {
		return psioa.NewBuilder(id, "a0").
			AddState("a0", psioa.NewSignature(nil, nil, []psioa.Action{psioa.Action("tick_" + id)})).
			AddState("a1", psioa.NewSignature(nil, []psioa.Action{out}, nil)).
			AddDet("a0", psioa.Action("tick_"+id), "a1").
			AddDet("a1", out, "a1").
			MustBuild()
	}
	steady := func(id string, out psioa.Action) *psioa.Table {
		return psioa.NewBuilder(id, "b0").
			AddState("b0", psioa.NewSignature(nil, []psioa.Action{out}, nil)).
			AddDet("b0", out, "b0").
			MustBuild()
	}
	for _, c := range []struct {
		name string
		mk   func() *psioa.Product
		want string
	}{
		{"nested", func() *psioa.Product {
			inner := psioa.MustCompose(tick("u", "x"), steady("v", "x"))
			return psioa.MustCompose(steady("w", "y"), psioa.HideSet(inner, psioa.NewActionSet("x")))
		}, `psioa: product "u||v" incompatible at state "a1|b0": psioa: signatures 0 and 1 share output actions {x}`},
		{"outer", func() *psioa.Product {
			inner := psioa.MustCompose(tick("u", "x"), steady("v", "z"))
			return psioa.MustCompose(steady("w", "x"), psioa.HideSet(inner, psioa.NewActionSet("z")))
		}, `psioa: product "w||hide(u||v)" incompatible at state "b0|a1\\|b0": psioa: signatures 0 and 1 share output actions {x}`},
	} {
		ex, err := psioa.Explore(c.mk(), 100)
		if ex != nil || err == nil || err.Error() != c.want {
			t.Fatalf("%s: Explore = (%v, %v), want error %q", c.name, ex, err, c.want)
		}
		if _, rerr := refExplore(c.mk(), 100); rerr == nil || rerr.Error() != c.want {
			t.Fatalf("%s: reference error %v, want %q", c.name, rerr, c.want)
		}
		w := c.mk()
		inner := psioa.ProductOf(w.Components()[1])
		clash := w.Join([]psioa.State{"b0", inner.Join([]psioa.State{"a1", "b0"})})
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			w.Sig(clash)
			return "no panic"
		}()
		if got != c.want {
			t.Fatalf("%s: Sig panics with %q, want %q", c.name, got, c.want)
		}
	}
}

// diffExploration describes how got differs from want, or returns "".
func diffExploration(got, want *psioa.Exploration) string {
	if !reflect.DeepEqual(got.States, want.States) || got.Truncated != want.Truncated ||
		!reflect.DeepEqual(got.Acts.Sorted(), want.Acts.Sorted()) || len(got.Sigs) != len(want.Sigs) {
		return "states, actions or truncation differ"
	}
	for _, q := range want.States {
		if !got.Sigs[q].Equal(want.Sigs[q]) {
			return fmt.Sprintf("Sigs[%q] = %v, want %v", q, got.Sigs[q], want.Sigs[q])
		}
	}
	return ""
}

// TestProductTransConcurrent: goroutines that share one product — flat,
// and one with a nested product — and call Explore, Sig, CompatAt, Split
// and Trans on it at once get what a product used alone returns, bit for
// bit.
func TestProductTransConcurrent(t *testing.T) {
	for _, w := range []struct {
		name string
		mk   func() *psioa.Product
	}{
		{"flat", func() *psioa.Product {
			return psioa.MustCompose(syncAut("u", []psioa.Action{"m0"}, []psioa.Action{"n0"}, 5),
				syncAut("v", []psioa.Action{"n0"}, []psioa.Action{"m0"}, 6), testaut.Coin("c", 0.25))
		}},
		{"nested", func() *psioa.Product { return nestedWorlds()[1].mk(3).(*psioa.Product) }},
	} {
		type tr struct {
			q psioa.State
			a psioa.Action
		}
		ref := w.mk()
		ex, err := psioa.Explore(ref, 1000)
		if err != nil {
			t.Fatal(err)
		}
		var trs []tr
		want := map[tr]string{}
		split := map[psioa.State][]psioa.State{}
		for _, q := range ex.States {
			split[q] = ref.Split(q)
			for _, a := range psioa.SortedAll(ex.Sigs[q]) {
				trs = append(trs, tr{q, a})
				want[tr{q, a}] = fmt.Sprint(ref.Trans(q, a).SupportAndProbs())
			}
		}
		shared := w.mk()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				explore := func() {
					got, err := psioa.Explore(shared, 1000)
					if err != nil {
						t.Errorf("%s: Explore: %v", w.name, err)
					} else if d := diffExploration(got, ex); d != "" {
						t.Errorf("%s: Explore: %s", w.name, d)
					}
				}
				if g%2 == 0 {
					explore()
				}
				for k := range trs {
					x := trs[(k+7*g)%len(trs)]
					if err := shared.CompatAt(x.q); err != nil {
						t.Errorf("%s: CompatAt(%q) = %v", w.name, x.q, err)
						return
					}
					if sig := shared.Sig(x.q); !sig.Equal(ex.Sigs[x.q]) {
						t.Errorf("%s: Sig(%q) = %v, want %v", w.name, x.q, sig, ex.Sigs[x.q])
						return
					}
					if qs := shared.Split(x.q); !reflect.DeepEqual(qs, split[x.q]) {
						t.Errorf("%s: Split(%q) = %q, want %q", w.name, x.q, qs, split[x.q])
						return
					}
					if got := fmt.Sprint(shared.Trans(x.q, x.a).SupportAndProbs()); got != want[x] {
						t.Errorf("%s: Trans(%q, %q) = %s, want %s", w.name, x.q, x.a, got, want[x])
						return
					}
				}
				if g%2 == 1 {
					explore()
				}
			}(g)
		}
		wg.Wait()
	}
}
