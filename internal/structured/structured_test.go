package structured_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/structured"
	"repro/internal/testaut"
)

// server returns a structured automaton with an environment interface
// (req/rsp) and an adversary interface (leak output, corrupt input).
func server(id string) *structured.Structured {
	req := psioa.Action("req_" + id)
	rsp := psioa.Action("rsp_" + id)
	leak := psioa.Action("leak_" + id)
	corrupt := psioa.Action("corrupt_" + id)
	t := psioa.NewBuilder(id, "idle").
		AddState("idle", psioa.NewSignature([]psioa.Action{req, corrupt}, nil, nil)).
		AddState("busy", psioa.NewSignature([]psioa.Action{corrupt}, []psioa.Action{rsp, leak}, nil)).
		AddState("corrupted", psioa.NewSignature([]psioa.Action{req}, []psioa.Action{leak}, nil)).
		AddDet("idle", req, "busy").
		AddDet("idle", corrupt, "corrupted").
		AddDet("busy", rsp, "idle").
		AddDet("busy", leak, "busy").
		AddDet("busy", corrupt, "corrupted").
		AddDet("corrupted", req, "corrupted").
		AddDet("corrupted", leak, "corrupted").
		MustBuild()
	return structured.NewSet(t, psioa.NewActionSet(req, rsp))
}

func TestEActAAct(t *testing.T) {
	s := server("s")
	if !s.EAct("idle").Equal(psioa.NewActionSet("req_s")) {
		t.Errorf("EAct(idle) = %v", s.EAct("idle"))
	}
	if !structured.AAct(s, "idle").Equal(psioa.NewActionSet("corrupt_s")) {
		t.Errorf("AAct(idle) = %v", structured.AAct(s, "idle"))
	}
	if !structured.AAct(s, "busy").Equal(psioa.NewActionSet("leak_s", "corrupt_s")) {
		t.Errorf("AAct(busy) = %v", structured.AAct(s, "busy"))
	}
}

func TestDerivedMappings(t *testing.T) {
	s := server("s")
	if !structured.EI(s, "idle").Equal(psioa.NewActionSet("req_s")) {
		t.Errorf("EI = %v", structured.EI(s, "idle"))
	}
	if !structured.EO(s, "busy").Equal(psioa.NewActionSet("rsp_s")) {
		t.Errorf("EO = %v", structured.EO(s, "busy"))
	}
	if !structured.AI(s, "idle").Equal(psioa.NewActionSet("corrupt_s")) {
		t.Errorf("AI = %v", structured.AI(s, "idle"))
	}
	if !structured.AO(s, "busy").Equal(psioa.NewActionSet("leak_s")) {
		t.Errorf("AO = %v", structured.AO(s, "busy"))
	}
}

func TestDefaultEActIsExt(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := structured.New(c, nil)
	if !s.EAct("h").Equal(psioa.NewActionSet("heads_c")) {
		t.Errorf("default EAct = %v", s.EAct("h"))
	}
	if len(structured.AAct(s, "h")) != 0 {
		t.Error("default AAct should be empty")
	}
}

func TestValidateStructured(t *testing.T) {
	if err := structured.Validate(server("s"), 100); err != nil {
		t.Errorf("valid structured automaton rejected: %v", err)
	}
	// EAct containing a non-external action is invalid.
	c := testaut.Coin("c", 0.5)
	bad := structured.New(c, func(q psioa.State) psioa.ActionSet {
		return psioa.NewActionSet("flip_c") // internal!
	})
	if err := structured.Validate(bad, 100); err == nil {
		t.Error("EAct ⊄ ext accepted")
	}
}

func TestUniverses(t *testing.T) {
	s := server("s")
	ai, err := adversary.InterfaceOf(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if aa := ai.AAct(); !aa.Equal(psioa.NewActionSet("leak_s", "corrupt_s")) {
		t.Errorf("AAct universe = %v", aa)
	}
	if ea := eactUnion(t, s, 100); !ea.Equal(psioa.NewActionSet("req_s", "rsp_s")) {
		t.Errorf("EAct union = %v", ea)
	}
}

func TestStructuredCompatibility(t *testing.T) {
	// A client that drives the server via its environment interface: shared
	// actions req/rsp are environment actions of both — compatible.
	s := server("s")
	clientT := psioa.NewBuilder("client", "c0").
		AddState("c0", psioa.NewSignature([]psioa.Action{"rsp_s"}, []psioa.Action{"req_s"}, nil)).
		AddState("c1", psioa.NewSignature([]psioa.Action{"rsp_s"}, nil, nil)).
		AddDet("c0", "req_s", "c1").
		AddDet("c0", "rsp_s", "c0").
		AddDet("c1", "rsp_s", "c0").
		MustBuild()
	client := structured.NewSet(clientT, psioa.NewActionSet("req_s", "rsp_s"))
	if err := structured.CheckCompatible(1000, s, client); err != nil {
		t.Errorf("compatible pair rejected: %v", err)
	}
	// An eavesdropper that listens on the adversary action leak_s: shared
	// action is not an environment action of the server — incompatible as
	// *structured* automata (though fine as plain PSIOA).
	evilT := psioa.NewBuilder("evil", "e0").
		AddState("e0", psioa.NewSignature([]psioa.Action{"leak_s"}, nil, nil)).
		AddDet("e0", "leak_s", "e0").
		MustBuild()
	evil := structured.NewSet(evilT, psioa.NewActionSet("leak_s"))
	if err := psioa.CheckPartiallyCompatible(1000, s, evilT); err != nil {
		t.Fatalf("plain compatibility should hold: %v", err)
	}
	if err := structured.CheckCompatible(1000, s, evil); err == nil {
		t.Error("adversary-action sharing accepted as structured-compatible")
	}
}

func TestStructuredCompose(t *testing.T) {
	s1, s2 := server("a"), server("b")
	p, err := structured.Compose(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Start()
	if !p.EAct(q).Equal(psioa.NewActionSet("req_a", "req_b")) {
		t.Errorf("composed EAct = %v", p.EAct(q))
	}
	if !structured.AAct(p, q).Equal(psioa.NewActionSet("corrupt_a", "corrupt_b")) {
		t.Errorf("composed AAct = %v", structured.AAct(p, q))
	}
	// Flattening.
	s3 := server("c")
	nested := structured.MustCompose(structured.MustCompose(s1, s2), s3)
	flat := structured.MustCompose(s1, s2, s3)
	if nested.ID() != flat.ID() || len(nested.Components()) != 3 {
		t.Error("structured composition flattening broken")
	}
}

func TestStructuredHide(t *testing.T) {
	s := server("s")
	h := structured.HideSet(s, psioa.NewActionSet("rsp_s"))
	// rsp becomes internal: removed from EAct and from ext.
	if h.EAct("busy").Has("rsp_s") {
		t.Error("hidden action still in EAct")
	}
	if h.Sig("busy").Out.Has("rsp_s") || !h.Sig("busy").Int.Has("rsp_s") {
		t.Errorf("hide signature wrong: %v", h.Sig("busy"))
	}
	// AAct unchanged.
	if !structured.AAct(h, "busy").Equal(psioa.NewActionSet("leak_s", "corrupt_s")) {
		t.Errorf("AAct after hide = %v", structured.AAct(h, "busy"))
	}
	if err := structured.Validate(h, 100); err != nil {
		t.Errorf("hidden structured automaton invalid: %v", err)
	}
}

func TestStructuredPCA(t *testing.T) {
	// A PCA over structured constituents: EAct_X(q) = EAct(config) \ hidden.
	sA := server("a")
	reg := pca.MapRegistry{}.Register(sA)
	init := pca.NewConfig(map[string]psioa.State{"a": "idle"})
	x := pca.MustNew("X", reg, init, pca.WithHidden(func(c *pca.Config) psioa.ActionSet {
		return psioa.NewActionSet() // nothing hidden
	}))
	sx := structured.StructurePCA(x, sA)
	q := sx.Start()
	if !sx.EAct(q).Equal(psioa.NewActionSet("req_a")) {
		t.Errorf("SPCA EAct = %v", sx.EAct(q))
	}
	if !structured.AAct(sx, q).Equal(psioa.NewActionSet("corrupt_a")) {
		t.Errorf("SPCA AAct = %v", structured.AAct(sx, q))
	}
	if err := structured.Validate(sx, 1000); err != nil {
		t.Errorf("SPCA invalid as structured automaton: %v", err)
	}
}

func TestStructuredPCADefaultConstituent(t *testing.T) {
	// Constituents without a registered EAct default to fully environment-
	// facing.
	c := testaut.Coin("c", 0.5)
	reg := pca.MapRegistry{}.Register(c)
	init := pca.NewConfig(map[string]psioa.State{"c": "q0"})
	x := pca.MustNew("X", reg, init)
	sx := structured.StructurePCA(x)
	// After flipping, the configuration is at h or t with an output action.
	eta := sx.Trans(sx.Start(), "flip_c")
	for _, q2 := range eta.Support() {
		ea := sx.EAct(q2)
		if len(ea) != 1 {
			t.Errorf("default SPCA EAct at %q = %v", q2, ea)
		}
	}
}

func TestComposeSPCA(t *testing.T) {
	mk := func(id string) *structured.StructuredPCA {
		s := server(id)
		reg := pca.MapRegistry{}.Register(s)
		init := pca.NewConfig(map[string]psioa.State{id: "idle"})
		return structured.StructurePCA(pca.MustNew("X_"+id, reg, init), s)
	}
	x1, x2 := mk("a"), mk("b")
	comp, err := structured.ComposeSPCA(x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	q := comp.Start()
	if !comp.EAct(q).Equal(psioa.NewActionSet("req_a", "req_b")) {
		t.Errorf("composed SPCA EAct = %v", comp.EAct(q))
	}
	// Lemma 4.23: the composition is still a valid structured PCA.
	if err := structured.Validate(comp, 2000); err != nil {
		t.Errorf("composed SPCA invalid: %v", err)
	}
	if err := pca.ValidatePCA(comp, 2000); err != nil {
		t.Errorf("composed SPCA violates PCA constraints: %v", err)
	}
	// Duplicate constituents rejected.
	if _, err := structured.ComposeSPCA(x1, mk("a")); err == nil {
		t.Error("duplicate constituent accepted")
	}
}
