package psioa_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/pca"
	"repro/internal/protocols/dynchannel"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/structured"
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

// ledgerPCA is E2's one-subchain ledger composite, a PCA product of two
// ledger hosts.
func ledgerPCA() *pca.Product {
	x1, _ := ledger.Host("a", 1, ledger.Direct)
	x2, _ := ledger.Host("b", 1, ledger.Parity)
	return pca.MustComposePCA(x1, x2)
}

// openCoinS is OpenCoin(x)‖CoinEnv(x) as a structured product, whose coin
// shows go_x to the environment and its outcome to the adversary.
func openCoinS(id string) *structured.Product {
	return structured.MustCompose(
		structured.NewSet(testaut.OpenCoin(id, 0.5), psioa.NewActionSet(psioa.Action("go_"+id))),
		structured.New(testaut.CoinEnv(id), nil))
}

// walkWorlds are products from testaut, bare and under the Hidden and
// Atomic wrappers; the automata that embed a product (a PCA composite,
// PCA hiding over it, a structured product and structured hiding over it),
// bare, under Atomic and as components; and a Renamed product, which
// Explore does not unwrap. Each call builds fresh automata, so no two
// explorations share caches.
func walkWorlds() []struct {
	name string
	mk   func() psioa.PSIOA
} {
	openCoin := func(id string) *psioa.Product {
		return psioa.MustCompose(testaut.OpenCoin(id, 0.5), testaut.CoinEnv(id))
	}
	hiddenPCA := func() psioa.PSIOA {
		x := ledgerPCA()
		return pca.HidePCASet(x, x.Sig(x.Start()).Out)
	}
	hiddenS := func() psioa.PSIOA {
		return structured.HideSet(openCoinS("x"), psioa.NewActionSet("heads_x", "tails_x"))
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
		{"pca-product", func() psioa.PSIOA { return ledgerPCA() }},
		{"atomic-pca-product", func() psioa.PSIOA { return psioa.Atom(ledgerPCA()) }},
		{"pca-hidden", hiddenPCA},
		{"atomic-pca-hidden", func() psioa.PSIOA { return psioa.Atom(hiddenPCA()) }},
		{"structured-product", func() psioa.PSIOA { return openCoinS("x") }},
		{"atomic-structured-product", func() psioa.PSIOA { return psioa.Atom(openCoinS("x")) }},
		{"structured-hidden", hiddenS},
		{"atomic-structured-hidden", func() psioa.PSIOA { return psioa.Atom(hiddenS()) }},
		{"nested-embedders", func() psioa.PSIOA {
			return psioa.MustCompose(hiddenPCA(), hiddenS(), testaut.Coin("z", 0.25))
		}},
	}
}

// syncWorlds are testaut's generated worlds (three flat, three with a
// nested product under Hidden and Atomic wrappers, whose successors come
// from the nested tables) and the dynamic channel world
// env‖hide(host‖adv) at one session.
func syncWorlds() []testaut.SyncWorld {
	return append(testaut.SyncWorlds(), testaut.SyncWorld{Name: "env||hide(host||adv)", Seeds: 1, Make: func(uint64) psioa.PSIOA {
		host := dynchannel.Host("d", 1, dynchannel.RealKind)
		left, err := core.HideAAct(host, dynchannel.Adversary("d", 1), 1000)
		if err != nil {
			panic(err)
		}
		return psioa.MustCompose(dynchannel.Env("d", []int{1}), left)
	}})
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

// TestExploreWalkNestedWorlds runs the differential check on the generated
// worlds, whose nested products supply their successors from the nested
// tables, and on the dynamic channel world.
func TestExploreWalkNestedWorlds(t *testing.T) {
	for _, w := range syncWorlds() {
		for seed := uint64(1); seed <= w.Seeds; seed++ {
			mk := func() psioa.PSIOA { return w.Make(seed) }
			full, err := refExplore(mk(), 100000)
			if err != nil {
				t.Fatalf("%s/seed=%d: reference: %v", w.Name, seed, err)
			}
			for _, limit := range []int{100000, 2, 5, 17, len(full.States) / 2} {
				checkWalk(t, fmt.Sprintf("%s/seed=%d/limit=%d", w.Name, seed, limit), mk, limit)
			}
		}
	}
}

// TestExploreWalkRandomProducts runs the differential check over u‖v‖w
// for 40 seeds, bare, hidden or with u‖v under Atomic by seed.
func TestExploreWalkRandomProducts(t *testing.T) {
	worlds := testaut.SyncWorlds()
	for seed := uint64(1); seed <= 40; seed++ {
		mk := func() psioa.PSIOA { return worlds[seed%3].Make(seed) }
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

// recorder is a Visitor that renders each visited transition's successors
// and fails on a walk ID naming two states.
type recorder struct {
	t      *testing.T
	what   string
	names  map[uint32]psioa.State
	states []psioa.State
	q      psioa.State
	acts   []psioa.Action
	trans  map[string]string
}

func (r *recorder) name(id uint32, q psioa.State) {
	if old, ok := r.names[id]; ok && old != q {
		r.t.Fatalf("%s: walk ID %d names %q and %q", r.what, id, old, q)
	}
	r.names[id] = q
}

func (r *recorder) State(id uint32, q psioa.State, _ psioa.Signature, acts []psioa.Action) {
	r.name(id, q)
	r.q, r.acts = q, acts
	r.states = append(r.states, q)
}

func (r *recorder) Trans(k int, succ []psioa.Succ) {
	d := measure.New[psioa.State]()
	for _, s := range succ {
		r.name(s.ID, s.Q)
		d.Add(s.Q, s.P)
	}
	if d.Len() != len(succ) {
		r.t.Fatalf("%s: (%q, %q) visited a successor twice: %v", r.what, r.q, r.acts[k], succ)
	}
	qs, ps := d.SupportAndProbs()
	r.trans[string(r.q)+" "+string(r.acts[k])] = fmt.Sprint(qs, ps)
}

// recordWalk walks a with a recorder. It returns the exploration and the
// rendered successor lists by "state action", and fails t unless the
// visited states are the explored ones, in order.
func recordWalk(t *testing.T, what string, a psioa.PSIOA, limit int) (*psioa.Exploration, map[string]string) {
	t.Helper()
	r := &recorder{t: t, what: what, names: map[uint32]psioa.State{}, trans: map[string]string{}}
	ex, err := psioa.Walk(context.Background(), a, limit, nil, r)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(r.states, ex.States) {
		t.Fatalf("%s: visited %q, explored %q", what, r.states, ex.States)
	}
	return ex, r.trans
}

// TestWalkVisitsTransitions: on every world and limit, Walk visits the
// states Explore returns, in order, and for each of their actions exactly
// the support and masses of Trans, without building a product measure;
// its exploration equals Explore's.
func TestWalkVisitsTransitions(t *testing.T) {
	worlds := walkWorlds()
	for _, w := range syncWorlds() {
		worlds = append(worlds, struct {
			name string
			mk   func() psioa.PSIOA
		}{w.Name, func() psioa.PSIOA { return w.Make(1) }})
	}
	for _, w := range worlds {
		for _, limit := range []int{100000, 1, 5} {
			what := fmt.Sprintf("%s/limit=%d", w.name, limit)
			a := w.mk()
			got, trans := recordWalk(t, what, a, limit)
			noProductMeasures(t, what, a)
			b := w.mk()
			want, err := psioa.Explore(b, limit)
			if err != nil {
				t.Fatal(err)
			}
			sameExploration(t, what, got, want)
			n := 0
			for _, q := range want.States {
				for _, act := range psioa.SortedAll(want.Sigs[q]) {
					qs, ps := b.Trans(q, act).SupportAndProbs()
					if got, want := trans[string(q)+" "+string(act)], fmt.Sprint(qs, ps); got != want {
						t.Fatalf("%s: (%q, %q) visited %s, want %s", what, q, act, got, want)
					}
					n++
				}
			}
			if n != len(trans) {
				t.Fatalf("%s: visited %d transitions, want %d", what, len(trans), n)
			}
		}
	}
}

// TestDescribeBuildsNoProductMeasures: describing a product, bare, wrapped
// or nested, reads its successors from the state tables and caches no
// transition measure.
func TestDescribeBuildsNoProductMeasures(t *testing.T) {
	for _, w := range syncWorlds() {
		a := w.Make(1)
		if _, err := bounded.Describe(a, 100000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		noProductMeasures(t, w.Name, a)
	}
	x1, _ := ledger.Host("a", 1, ledger.Direct)
	x2, _ := ledger.Host("b", 1, ledger.Parity)
	p := psioa.MustCompose(x1, x2)
	if _, err := bounded.Describe(p, 100000); err != nil {
		t.Fatal(err)
	}
	noProductMeasures(t, "ledger pair", p)
	// E2's composite is a PCA that embeds its product; the check reads
	// the embedded product directly, so it does not rely on the sharing
	// it tests.
	x := pca.MustComposePCA(x1, x2)
	if _, err := bounded.Describe(x, 100000); err != nil {
		t.Fatal(err)
	}
	noProductMeasures(t, "ledger PCA composite", x.Product)
}

// TestProductOf: the automata that embed a product, or hide or wrap one
// in Atomic, share its table; wrappers that change the action set or the
// transitions, or that count or adapt what they wrap, share none.
func TestProductOf(t *testing.T) {
	p := psioa.MustCompose(testaut.OpenCoin("x", 0.5), testaut.CoinEnv("x"))
	x := ledgerPCA()
	sp := openCoinS("y")
	for _, c := range []struct {
		name string
		a    psioa.PSIOA
		want *psioa.Product
	}{
		{"product", p, p},
		{"hidden", psioa.HideSet(p, psioa.NewActionSet("heads_x")), p},
		{"atomic", psioa.Atom(p), p},
		{"atomic-hidden-atomic", psioa.Atom(psioa.HideSet(psioa.Atom(p), psioa.NewActionSet("heads_x"))), p},
		{"pca-product", x, x.Product},
		{"pca-hidden", pca.HidePCASet(x, psioa.NewActionSet()), x.Product},
		{"atomic-pca-hidden", psioa.Atom(pca.HidePCASet(x, psioa.NewActionSet())), x.Product},
		{"structured-product", sp, sp.Product},
		{"structured-hidden", structured.HideSet(sp, psioa.NewActionSet("heads_y")), sp.Product},
		{"table", testaut.Coin("c", 0.5), nil},
		{"hidden-table", psioa.HideSet(testaut.Coin("c", 0.5), psioa.NewActionSet()), nil},
		{"pca-config-automaton", x.PCAs()[0], nil},
		{"pca-hidden-config-automaton", pca.HidePCASet(x.PCAs()[0], psioa.NewActionSet()), nil},
		// Instrumented is charged through Trans (QueryWork), so it must
		// be walked through Trans.
		{"instrumented", bounded.Instrument(p, &bounded.Counter{}), nil},
		{"input-enabled", psioa.InputEnable(p, psioa.NewActionSet("go_x")), nil},
		{"renamed", psioa.RenameMap(p, map[psioa.Action]psioa.Action{"go_x": "start_x"}), nil},
		{"desc-adapter", pca.DescAdapter{PCA: x}, nil},
		{"structured-over-product", structured.New(p, nil), nil},
	} {
		if got := psioa.ProductOf(c.a); got != c.want {
			t.Errorf("%s: ProductOf = %p, want %p", c.name, got, c.want)
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
			return psioa.MustCompose(testaut.SyncAut("u", []psioa.Action{"m0"}, []psioa.Action{"n0"}, 5),
				testaut.SyncAut("v", []psioa.Action{"n0"}, []psioa.Action{"m0"}, 6), testaut.Coin("c", 0.25))
		}},
		// x‖Atom(hide(u‖v)‖w)
		{"nested", func() *psioa.Product { return testaut.SyncWorlds()[4].Make(3).(*psioa.Product) }},
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

// opaque is the automaton it wraps, behind a type that shares no product
// table, so Walk takes it through Sig and Trans.
type opaque struct{ psioa.PSIOA }

func (o opaque) CompatAt(q psioa.State) error {
	if cc, ok := o.PSIOA.(interface{ CompatAt(psioa.State) error }); ok {
		return cc.CompatAt(q)
	}
	return nil
}

// onePCA is the PCA whose configurations hold the one automaton a; it
// creates and hides nothing. It fails when a's start signature is empty,
// as that configuration is not reduced.
func onePCA(a psioa.PSIOA) (pca.PCA, error) {
	return pca.New("X_"+a.ID(), pca.MapRegistry{}.Register(a), pca.NewConfig(map[string]psioa.State{a.ID(): a.Start()}))
}

// sharers wrap a world in each kind of automaton that shares a product's
// table: Atomic and hiding, and the PCA and structured compositions and
// their hiding, which embed them.
var sharers = []struct {
	name string
	wrap func(w psioa.PSIOA, h psioa.ActionSet) (psioa.PSIOA, error)
}{
	{"atomic", func(w psioa.PSIOA, _ psioa.ActionSet) (psioa.PSIOA, error) { return psioa.Atom(w), nil }},
	{"hidden", func(w psioa.PSIOA, h psioa.ActionSet) (psioa.PSIOA, error) { return psioa.HideSet(w, h), nil }},
	{"pca-product", func(w psioa.PSIOA, _ psioa.ActionSet) (psioa.PSIOA, error) {
		x, err := onePCA(w)
		if err != nil {
			return nil, err
		}
		return pca.ComposePCA(x)
	}},
	{"pca-hidden", func(w psioa.PSIOA, h psioa.ActionSet) (psioa.PSIOA, error) {
		x, err := onePCA(w)
		if err != nil {
			return nil, err
		}
		return pca.HidePCASet(pca.MustComposePCA(x), h), nil
	}},
	{"structured-product", func(w psioa.PSIOA, _ psioa.ActionSet) (psioa.PSIOA, error) {
		return structured.Compose(structured.New(w, nil))
	}},
	{"structured-hidden", func(w psioa.PSIOA, h psioa.ActionSet) (psioa.PSIOA, error) {
		return structured.HideSet(structured.MustCompose(structured.New(w, nil)), h), nil
	}},
}

// FuzzSharedWalk: a testaut world under each sharer, alone or as a
// component of a product, walks through the shared table exactly as the
// same automaton behind an opaque wrapper walks through Sig and Trans:
// the same states in order, signatures, successor lists and truncation,
// at the fuzzed limit.
func FuzzSharedWalk(f *testing.F) {
	worlds := testaut.SyncWorlds()
	f.Fuzz(func(t *testing.T, world, wrap, hide uint8, seed uint64, limit uint16, nest bool) {
		w := worlds[int(world)%len(worlds)]
		s := sharers[int(wrap)%len(sharers)]
		// The nesting component y listens to m1 and o0, so they stay
		// outputs when it is there: hiding one would make y incompatible.
		yIn := []psioa.Action{"m1", "o0"}
		h := psioa.NewActionSet()
		for i, a := range []psioa.Action{"m0", "m1", "n0", "n1", "o0", "p0"} {
			if hide&(1<<i) != 0 && !(nest && slices.Contains(yIn, a)) {
				h.Add(a)
			}
		}
		mk := func(outer func(psioa.PSIOA) psioa.PSIOA) psioa.PSIOA {
			a, err := s.wrap(w.Make(seed), h)
			if err != nil {
				t.Skipf("%s over %s: %v", s.name, w.Name, err)
			}
			a = outer(a)
			if nest {
				y := testaut.SyncAut("y", []psioa.Action{"q0"}, yIn, seed+1)
				return psioa.MustCompose(y, a)
			}
			return a
		}
		n := 1 + int(limit)%700
		what := fmt.Sprintf("%s over %s/seed=%d, nest %v, limit %d", s.name, w.Name, seed, nest, n)
		got, gotTrans := recordWalk(t, what, mk(func(a psioa.PSIOA) psioa.PSIOA { return a }), n)
		want, wantTrans := recordWalk(t, what+"/opaque", mk(func(a psioa.PSIOA) psioa.PSIOA { return opaque{a} }), n)
		sameExploration(t, what, got, want)
		if !reflect.DeepEqual(gotTrans, wantTrans) {
			t.Fatalf("%s: successor lists differ:\n got %v\nwant %v", what, gotTrans, wantTrans)
		}
	})
}
