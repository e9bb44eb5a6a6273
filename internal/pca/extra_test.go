package pca_test

import (
	"strings"
	"testing"

	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/testaut"
)

func TestHiddenPCATransPanicsOnDisabled(t *testing.T) {
	x, _ := factory("f", 1, 0.5)
	h := pca.HidePCASet(x, psioa.NewActionSet("spawn_f"))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for disabled action")
		}
	}()
	h.Trans(h.Start(), "nonexistent")
}

func TestHiddenPCARegistryAndConfig(t *testing.T) {
	x, _ := factory("f", 1, 0.5)
	h := pca.HidePCASet(x, psioa.NewActionSet("spawn_f"))
	if h.Registry() == nil {
		t.Error("registry lost")
	}
	if !h.Config(h.Start()).Equal(x.Config(x.Start())) {
		t.Error("config changed by hiding")
	}
	if got := h.Created(h.Start(), "spawn_f"); len(got) != 1 {
		t.Errorf("Created = %v", got)
	}
	if !strings.HasPrefix(h.ID(), "hide(") {
		t.Errorf("ID = %q", h.ID())
	}
}

func TestHidePCAStateDependent(t *testing.T) {
	x, _ := factory("f", 1, 0.5)
	h := pca.HidePCA(x, func(q psioa.State) psioa.ActionSet {
		// Hide spawn only at the start state.
		if q == x.Start() {
			return psioa.NewActionSet("spawn_f")
		}
		return psioa.NewActionSet()
	})
	if !h.Sig(h.Start()).Int.Has("spawn_f") {
		t.Error("spawn not hidden at start")
	}
	if err := pca.ValidatePCA(h, 1000); err != nil {
		t.Errorf("state-dependent hidden PCA invalid: %v", err)
	}
}

func TestProductHiddenActionsUnion(t *testing.T) {
	mk := func(id string) pca.PCA {
		reg := pca.MapRegistry{}.Register(testaut.Coin("c_"+id, 0.5))
		init := pca.NewConfig(map[string]psioa.State{"c_" + id: "q0"})
		x := pca.MustNew("X_"+id, reg, init, pca.WithHidden(func(c *pca.Config) psioa.ActionSet {
			return psioa.NewActionSet() // nothing, but exercises the mapping
		}))
		return pca.HidePCASet(x, psioa.NewActionSet(psioa.Action("heads_c_"+id)))
	}
	p := pca.MustComposePCA(mk("a"), mk("b"))
	// Drive both coins to their "h" states to expose the hidden outputs.
	q := p.Start()
	q = p.Trans(q, "flip_c_a").Support()[0]
	// Find a successor where coin a landed heads.
	cfg := p.Config(q)
	st, _ := cfg.StateOf("c_a")
	if st != "h" {
		// Re-derive deterministically: walk all successors.
		found := false
		for _, q2 := range p.Trans(p.Start(), "flip_c_a").Support() {
			if s2, _ := p.Config(q2).StateOf("c_a"); s2 == "h" {
				q, found = q2, true
				break
			}
		}
		if !found {
			t.Fatal("no heads successor")
		}
	}
	hidden := p.HiddenActions(q)
	if !hidden.Has("heads_c_a") {
		t.Errorf("composed hidden actions = %v", hidden)
	}
}

func TestUnionRegistryResolution(t *testing.T) {
	x1, _ := factory("a", 1, 0.5)
	x2, _ := factory("b", 1, 0.5)
	p := pca.MustComposePCA(x1, x2)
	reg := p.Registry()
	if _, ok := reg.Lookup("ctrl_a"); !ok {
		t.Error("ctrl_a not resolvable")
	}
	if _, ok := reg.Lookup("ctrl_b"); !ok {
		t.Error("ctrl_b not resolvable")
	}
	if _, ok := reg.Lookup("ghost"); ok {
		t.Error("ghost resolvable")
	}
}

func TestComposePCACreatedConvention(t *testing.T) {
	// created(Xi)(qi)(a) = ∅ when a ∉ sig(Xi)(qi): composing hosts, each
	// host's spawn action only creates its own coin.
	x1, _ := factory("a", 1, 0.5)
	x2, _ := factory("b", 1, 0.5)
	p := pca.MustComposePCA(x1, x2)
	created := p.Created(p.Start(), "spawn_a")
	if len(created) != 1 || created[0] != "coin_a_0" {
		t.Errorf("Created(spawn_a) = %v", created)
	}
}

func TestConfigAutomatonPanicsOnBadState(t *testing.T) {
	x, _ := factory("f", 1, 0.5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-config state")
		}
	}()
	x.Config("not-a-config-key\\")
}

func TestDescAdapterDelegation(t *testing.T) {
	x, _ := factory("f", 1, 0.5)
	d := pca.DescAdapter{PCA: x}
	if err := d.CompatAt(x.Start()); err != nil {
		t.Errorf("CompatAt: %v", err)
	}
}
