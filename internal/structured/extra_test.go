package structured_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/structured"
	"repro/internal/testaut"
)

func TestHideOverStructuredPCA(t *testing.T) {
	// Hiding a structured PCA's environment output removes it from EAct.
	s := server("a")
	reg := pca.MapRegistry{}.Register(s)
	init := pca.NewConfig(map[string]psioa.State{"a": "idle"})
	x := pca.MustNew("X", reg, init)
	sx := structured.StructurePCA(x, s)
	h := structured.HideSet(sx, psioa.NewActionSet("rsp_a"))
	// Find a state where rsp would be offered: idle --req--> busy.
	q := sx.Trans(sx.Start(), "req_a").Support()[0]
	if h.EAct(q).Has("rsp_a") {
		t.Error("hidden action still environment-facing")
	}
	if !h.Sig(q).Int.Has("rsp_a") {
		t.Errorf("hidden action not internal: %v", h.Sig(q))
	}
	if err := structured.Validate(h, 1000); err != nil {
		t.Errorf("hidden structured PCA invalid: %v", err)
	}
}

func TestCheckCompatibleThreeWay(t *testing.T) {
	a, b, c := server("a"), server("b"), server("c")
	if err := structured.CheckCompatible(5000, a, b, c); err != nil {
		t.Errorf("three independent servers rejected: %v", err)
	}
}

func TestEActUniverseOnProduct(t *testing.T) {
	p := structured.MustCompose(server("a"), server("b"))
	ea := eactUnion(t, p, 5000)
	for _, want := range []psioa.Action{"req_a", "rsp_a", "req_b", "rsp_b"} {
		if !ea.Has(want) {
			t.Errorf("EAct union missing %s: %v", want, ea)
		}
	}
	ai, err := adversary.InterfaceOf(p, 5000)
	if err != nil {
		t.Fatal(err)
	}
	aa := ai.AAct()
	for _, want := range []psioa.Action{"leak_a", "corrupt_a", "leak_b", "corrupt_b"} {
		if !aa.Has(want) {
			t.Errorf("AAct universe missing %s: %v", want, aa)
		}
	}
}

// eactUnion is the union of s's EAct over its reachable states.
func eactUnion(t *testing.T, s structured.SPSIOA, limit int) psioa.ActionSet {
	t.Helper()
	ex, err := psioa.Explore(s, limit)
	if err != nil {
		t.Fatal(err)
	}
	out := psioa.NewActionSet()
	for _, q := range ex.States {
		out.AddAll(s.EAct(q))
	}
	return out
}

func TestStructuredWrapsComposite(t *testing.T) {
	// NewSet over an (unstructured) product classifies per projected state.
	inner := psioa.MustCompose(testaut.Coin("p", 0.5), testaut.Coin("q", 0.5))
	s := structured.NewSet(inner, psioa.NewActionSet("heads_p", "tails_p"))
	ex, err := psioa.Explore(s, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ex.States {
		ea := s.EAct(q)
		if ea.Has("heads_q") || ea.Has("tails_q") {
			t.Fatalf("q-coin actions leaked into EAct at %q", q)
		}
	}
	if err := structured.Validate(s, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestStructuredCompatAtDelegation(t *testing.T) {
	// A structured wrapper over an incompatible product surfaces the error.
	mk := func(id string) *psioa.Table {
		return psioa.NewBuilder(id, "q").
			AddState("q", psioa.NewSignature(nil, []psioa.Action{"o"}, nil)).
			AddDet("q", "o", "q").
			MustBuild()
	}
	inner := psioa.MustCompose(mk("a"), mk("b"))
	s := structured.New(inner, nil)
	if err := structured.Validate(s, 10); err == nil {
		t.Error("incompatible product hidden by structured wrapper")
	}
}
