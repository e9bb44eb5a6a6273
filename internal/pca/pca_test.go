package pca_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// factory builds a PCA with a controller that can spawn up to n coins; each
// coin flips (internally), announces its outcome, and is then destroyed
// (its signature becomes empty, so reduction removes it — Def 2.12/2.14).
func factory(id string, n int, bias float64) (*pca.ConfigAutomaton, pca.MapRegistry) {
	reg := pca.MapRegistry{}
	spawn := psioa.Action("spawn_" + id)
	b := psioa.NewBuilder("ctrl_"+id, "s0")
	for i := 0; i < n; i++ {
		b.AddState(psioa.State(fmt.Sprintf("s%d", i)),
			psioa.NewSignature(nil, []psioa.Action{spawn}, nil))
		b.AddDet(psioa.State(fmt.Sprintf("s%d", i)), spawn, psioa.State(fmt.Sprintf("s%d", i+1)))
	}
	b.AddState(psioa.State(fmt.Sprintf("s%d", n)),
		psioa.NewSignature(nil, []psioa.Action{"idle_" + psioa.Action(id)}, nil))
	b.AddDet(psioa.State(fmt.Sprintf("s%d", n)), "idle_"+psioa.Action(id), psioa.State(fmt.Sprintf("s%d", n)))
	ctrl := b.MustBuild()
	reg.Register(ctrl)
	for i := 0; i < n; i++ {
		reg.Register(testaut.Coin(fmt.Sprintf("coin_%s_%d", id, i), bias))
	}
	created := func(c *pca.Config, a psioa.Action) []string {
		if a != spawn {
			return nil
		}
		st, _ := c.StateOf(ctrl.ID())
		// ctrl at s_i spawns coin i.
		var k int
		fmt.Sscanf(string(st), "s%d", &k)
		return []string{fmt.Sprintf("coin_%s_%d", id, k)}
	}
	init := pca.NewConfig(map[string]psioa.State{ctrl.ID(): "s0"})
	return pca.MustNew("X_"+id, reg, init, pca.WithCreated(created)), reg
}

func TestConfigBasics(t *testing.T) {
	c := pca.NewConfig(map[string]psioa.State{"a": "q1", "b": "q2"})
	if c.Len() != 2 || !c.Has("a") || c.Has("z") {
		t.Error("config membership wrong")
	}
	if got := c.Auts(); got[0] != "a" || got[1] != "b" {
		t.Errorf("Auts = %v", got)
	}
	q, ok := c.StateOf("b")
	if !ok || q != "q2" {
		t.Error("StateOf wrong")
	}
	d := c.With("a", "q9")
	if st, _ := d.StateOf("a"); st != "q9" {
		t.Error("With failed")
	}
	if st, _ := c.StateOf("a"); st != "q1" {
		t.Error("With mutated original")
	}
	e := c.Without("a")
	if e.Has("a") || !e.Has("b") {
		t.Error("Without failed")
	}
}

func TestConfigKeyRoundTrip(t *testing.T) {
	c := pca.NewConfig(map[string]psioa.State{"a|x": "q|1", "b\\": "q2"})
	d, err := pca.FromKey(c.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(d) {
		t.Errorf("round trip failed: %v vs %v", c, d)
	}
	if _, err := pca.FromKey("junk\\"); err == nil {
		t.Error("expected decode error")
	}
}

func TestConfigSigAndCompatible(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5), testaut.Coin("c2", 0.5))
	c := pca.NewConfig(map[string]psioa.State{"c1": "q0", "c2": "h"})
	if err := c.Compatible(reg); err != nil {
		t.Fatal(err)
	}
	sig, err := c.Sig(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Int.Has("flip_c1") || !sig.Out.Has("heads_c2") {
		t.Errorf("intrinsic signature wrong: %v", sig)
	}
	// Unknown automaton.
	bad := pca.NewConfig(map[string]psioa.State{"ghost": "q0"})
	if err := bad.Compatible(reg); err == nil {
		t.Error("unknown automaton accepted")
	}
}

func TestConfigReduce(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5), testaut.Coin("c2", 0.5))
	c := pca.NewConfig(map[string]psioa.State{"c1": "q0", "c2": "done"})
	red, err := c.Reduce(reg)
	if err != nil {
		t.Fatal(err)
	}
	if red.Has("c2") || !red.Has("c1") {
		t.Errorf("Reduce = %v", red)
	}
	isRed, _ := c.IsReduced(reg)
	if isRed {
		t.Error("c should not be reduced")
	}
	isRed, _ = red.IsReduced(reg)
	if !isRed {
		t.Error("red should be reduced")
	}
}

func TestPreservingTrans(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.25), testaut.Coin("c2", 0.5))
	c := pca.NewConfig(map[string]psioa.State{"c1": "q0", "c2": "q0"})
	eta, err := pca.PreservingTrans(reg, c, "flip_c1")
	if err != nil {
		t.Fatal(err)
	}
	// c1 moves, c2 stays put.
	want := pca.NewConfig(map[string]psioa.State{"c1": "h", "c2": "q0"})
	if math.Abs(eta.P(want.Key())-0.25) > 1e-9 {
		t.Errorf("P(h) = %v, want 0.25", eta.P(want.Key()))
	}
	if !eta.IsProb() {
		t.Error("preserving transition not a probability measure")
	}
	// Disabled action.
	if _, err := pca.PreservingTrans(reg, c, "nope"); err == nil {
		t.Error("disabled action accepted")
	}
}

func TestIntrinsicTransCreation(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5), testaut.Coin("c2", 0.5))
	// c1 flips; c2 is created simultaneously.
	c := pca.NewConfig(map[string]psioa.State{"c1": "q0"})
	eta, err := pca.IntrinsicTrans(reg, c, "flip_c1", []string{"c2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range eta.Support() {
		cfg, _ := pca.FromKey(key)
		if !cfg.Has("c2") {
			t.Fatal("created automaton missing")
		}
		if st, _ := cfg.StateOf("c2"); st != "q0" {
			t.Errorf("created automaton not at start: %v", st)
		}
	}
}

func TestIntrinsicTransDestruction(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 1.0))
	// From h, emitting heads_c1 leads to done (empty signature) → destroyed.
	c := pca.NewConfig(map[string]psioa.State{"c1": "h"})
	eta, err := pca.IntrinsicTrans(reg, c, "heads_c1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if eta.Len() != 1 {
		t.Fatalf("support = %d", eta.Len())
	}
	cfg, _ := pca.FromKey(eta.Support()[0])
	if cfg.Len() != 0 {
		t.Errorf("automaton not destroyed: %v", cfg)
	}
}

func TestIntrinsicTransErrors(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5))
	nonReduced := pca.NewConfig(map[string]psioa.State{"c1": "done"})
	if _, err := pca.IntrinsicTrans(reg, nonReduced, "x", nil); err == nil {
		t.Error("non-reduced configuration accepted")
	}
	c := pca.NewConfig(map[string]psioa.State{"c1": "q0"})
	if _, err := pca.IntrinsicTrans(reg, c, "flip_c1", []string{"c1"}); err == nil {
		t.Error("φ ∩ A ≠ ∅ accepted")
	}
	if _, err := pca.IntrinsicTrans(reg, c, "flip_c1", []string{"ghost"}); err == nil {
		t.Error("unregistered creation accepted")
	}
}

func TestFactoryLifecycle(t *testing.T) {
	x, _ := factory("f", 2, 0.5)
	if err := psioa.Validate(x, 1000); err != nil {
		t.Fatal(err)
	}
	if err := pca.ValidatePCA(x, 1000); err != nil {
		t.Fatal(err)
	}
	// Drive: spawn coin 0, flip it, report heads, coin destroyed.
	s := &sched.Sequence{A: x, Acts: []psioa.Action{
		"spawn_f", "flip_coin_f_0", "heads_coin_f_0",
	}}
	em, err := sched.Measure(x, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	em.ForEach(func(f *psioa.Frag, p float64) {
		if f.Len() == 3 {
			found = true
			cfg := x.Config(f.LState())
			if cfg.Has("coin_f_0") {
				t.Error("coin not destroyed after reporting")
			}
			if !cfg.Has("ctrl_f") {
				t.Error("controller vanished")
			}
			if math.Abs(p-0.5) > 1e-9 {
				t.Errorf("heads path probability = %v, want 0.5", p)
			}
		}
	})
	if !found {
		t.Error("full lifecycle execution not found")
	}
}

func TestFactoryCreatedMapping(t *testing.T) {
	x, _ := factory("f", 2, 0.5)
	q := x.Start()
	created := x.Created(q, "spawn_f")
	if len(created) != 1 || created[0] != "coin_f_0" {
		t.Errorf("Created = %v", created)
	}
	cfg := x.Config(q)
	if cfg.Len() != 1 || !cfg.Has("ctrl_f") {
		t.Errorf("start config = %v", cfg)
	}
}

func TestPCARejectsNonStartInit(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5))
	init := pca.NewConfig(map[string]psioa.State{"c1": "h"})
	if _, err := pca.New("X", reg, init); err == nil || !strings.Contains(err.Error(), "constraint 1") {
		t.Errorf("expected constraint 1 error, got %v", err)
	}
}

func TestPCARejectsNonReducedInit(t *testing.T) {
	// An automaton whose *start* signature is empty can't be in a reduced
	// initial configuration.
	dead := psioa.NewBuilder("dead", "q").AddState("q", psioa.EmptySignature()).MustBuild()
	reg := pca.MapRegistry{}.Register(dead)
	init := pca.NewConfig(map[string]psioa.State{"dead": "q"})
	if _, err := pca.New("X", reg, init); err == nil || !strings.Contains(err.Error(), "reduced") {
		t.Errorf("expected reducedness error, got %v", err)
	}
}

func TestHidePCA(t *testing.T) {
	x, _ := factory("f", 1, 0.5)
	h := pca.HidePCASet(x, psioa.NewActionSet("spawn_f"))
	sig := h.Sig(h.Start())
	if sig.Out.Has("spawn_f") || !sig.Int.Has("spawn_f") {
		t.Errorf("hide failed: %v", sig)
	}
	if !h.HiddenActions(h.Start()).Has("spawn_f") {
		t.Error("hidden-actions mapping not extended")
	}
	if err := pca.ValidatePCA(h, 1000); err != nil {
		t.Errorf("hidden PCA invalid: %v", err)
	}
}

func TestComposePCA(t *testing.T) {
	x1, _ := factory("a", 1, 0.5)
	x2, _ := factory("b", 1, 0.5)
	p, err := pca.ComposePCA(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	if err := psioa.Validate(p, 2000); err != nil {
		t.Fatal(err)
	}
	if err := pca.ValidatePCA(p, 2000); err != nil {
		t.Fatal(err)
	}
	// Composed start config is the union.
	cfg := p.Config(p.Start())
	if !cfg.Has("ctrl_a") || !cfg.Has("ctrl_b") {
		t.Errorf("composed config = %v", cfg)
	}
	// Created mapping unions per Def 2.19.
	if got := p.Created(p.Start(), "spawn_a"); len(got) != 1 || got[0] != "coin_a_0" {
		t.Errorf("composed Created = %v", got)
	}
	// Flattening.
	x3, _ := factory("c", 1, 0.5)
	nested := pca.MustComposePCA(pca.MustComposePCA(x1, x2), x3)
	flat := pca.MustComposePCA(x1, x2, x3)
	if nested.ID() != flat.ID() || nested.Start() != flat.Start() {
		t.Error("PCA composition flattening broken")
	}
	if len(nested.PCAs()) != 3 {
		t.Errorf("components = %d", len(nested.PCAs()))
	}
}

func TestValidatePCACatchesBrokenCreated(t *testing.T) {
	// A creation mapping that tries to create an automaton already present:
	// IntrinsicTrans errors, surfacing through ValidatePCA.
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5))
	init := pca.NewConfig(map[string]psioa.State{"c1": "q0"})
	x := pca.MustNew("bad", reg, init, pca.WithCreated(func(c *pca.Config, a psioa.Action) []string {
		return []string{"c1"}
	}))
	err1 := pca.ValidatePCA(x, 100)
	if err1 == nil {
		t.Fatal("expected validation failure")
	}
	// The failed transition is not memoized: validating again recomputes it
	// and reports the same failure.
	if err2 := pca.ValidatePCA(x, 100); err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("second validation: %v, want %v", err2, err1)
	}
}

func TestValidatePCARepanicsOnBugs(t *testing.T) {
	// ValidatePCA converts only the typed ill-formed-PCA panics into
	// validation errors. A panic from a bug in the PCA implementation (here
	// a hidden-actions mapping that blows up) must propagate, not be
	// reported as "invalid input".
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5))
	init := pca.NewConfig(map[string]psioa.State{"c1": "q0"})
	x := pca.MustNew("buggy", reg, init, pca.WithHidden(func(c *pca.Config) psioa.ActionSet {
		panic("bug in hiddenFn")
	}))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ValidatePCA swallowed an implementation-bug panic")
		}
		if s, ok := r.(string); !ok || s != "bug in hiddenFn" {
			t.Errorf("re-panicked with %v, want the original value", r)
		}
	}()
	pca.ValidatePCA(x, 100)
}

func TestCreationMaskView(t *testing.T) {
	x, _ := factory("f", 2, 0.5)
	view := pca.CreationMaskView(x, []string{"ctrl_f"})
	// An oblivious sequence over actions enabled independently of the
	// created coin's internal state factors through the creation mask: after
	// the flip, the h- and t-fragments share a masked view, and the
	// scheduler's decision (spawn the second coin) is identical in both.
	s := &sched.Sequence{A: x, Acts: []psioa.Action{"spawn_f", "flip_coin_f_0", "spawn_f"}}
	if err := sched.FactorsThrough(x, s, view, 10); err != nil {
		t.Errorf("oblivious scheduler should be creation-oblivious: %v", err)
	}
	// Enabledness-reactive scheduling is allowed: the created coin's
	// *interface* (which outcome action its signature offers) is visible,
	// so a sequence attempting a specific outcome still factors.
	seqOutcome := &sched.Sequence{A: x, Acts: []psioa.Action{"spawn_f", "flip_coin_f_0", "heads_coin_f_0"}}
	if err := sched.FactorsThrough(x, seqOutcome, view, 10); err != nil {
		t.Errorf("interface-reactive scheduler should be creation-oblivious: %v", err)
	}
}

func TestCreationMaskViewRejectsHiddenStatePeeking(t *testing.T) {
	// An "opaque" child whose two post-sample states expose *identical*
	// signatures: conditioning on which one it is requires peeking at the
	// masked internal state, which creation-obliviousness forbids.
	opaque := psioa.NewBuilder("opq", "fresh").
		AddState("fresh", psioa.NewSignature(nil, nil, []psioa.Action{"mix"})).
		AddState("u0", psioa.NewSignature(nil, []psioa.Action{"beep"}, nil)).
		AddState("u1", psioa.NewSignature(nil, []psioa.Action{"beep"}, nil)).
		AddState("dead", psioa.EmptySignature()).
		AddCoin("fresh", "mix", "u0", "u1").
		AddDet("u0", "beep", "dead").
		AddDet("u1", "beep", "u1").
		MustBuild()
	ctrl := psioa.NewBuilder("ctrl", "c0").
		AddState("c0", psioa.NewSignature(nil, []psioa.Action{"spawn"}, nil)).
		AddState("c1", psioa.NewSignature(nil, []psioa.Action{"idle"}, nil)).
		AddDet("c0", "spawn", "c1").
		AddDet("c1", "idle", "c1").
		MustBuild()
	reg := pca.MapRegistry{}.Register(ctrl, opaque)
	x := pca.MustNew("opaqueHost", reg,
		pca.NewConfig(map[string]psioa.State{"ctrl": "c0"}),
		pca.WithCreated(func(c *pca.Config, a psioa.Action) []string {
			if a == "spawn" && !c.Has("opq") {
				return []string{"opq"}
			}
			return nil
		}))
	view := pca.CreationMaskView(x, []string{"ctrl"})
	peek := &sched.FuncSched{ID: "peek", Fn: func(f *psioa.Frag) *sched.Choice {
		cfg := x.Config(f.LState())
		if st, ok := cfg.StateOf("opq"); ok {
			switch st {
			case "fresh":
				return dirac("mix")
			case "u0":
				return dirac("beep") // fires only on the u0 branch: hidden-state peeking
			}
			return sched.Halt()
		}
		if f.Len() == 0 {
			return dirac("spawn")
		}
		return sched.Halt()
	}}
	if err := sched.FactorsThrough(x, peek, view, 10); err == nil {
		t.Error("hidden-state peeking scheduler should not be creation-oblivious")
	}
	// The uniform sequence over the same actions is fine.
	seq := &sched.Sequence{A: x, Acts: []psioa.Action{"spawn", "mix", "beep"}}
	if err := sched.FactorsThrough(x, seq, view, 10); err != nil {
		t.Errorf("uniform sequence rejected: %v", err)
	}
}

func dirac(a psioa.Action) *sched.Choice {
	c := sched.Halt()
	c.Add(a, 1)
	return c
}

func TestConfigString(t *testing.T) {
	c := pca.NewConfig(map[string]psioa.State{"b": "q2", "a": "q1"})
	if c.String() != "{a:q1, b:q2}" {
		t.Errorf("String = %q", c.String())
	}
}
