package spec_test

import (
	"errors"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/psioa"
	"repro/internal/spec"
)

func sample() *spec.Automaton {
	return &spec.Automaton{
		ID:    "toy",
		Start: "q0",
		States: map[string]spec.Sig{
			"q0": {Int: []string{"step"}},
			"q1": {Out: []string{"done"}},
			"q2": {},
		},
		Trans: []spec.Trans{
			{From: "q0", Action: "step", To: map[string]float64{"q1": 0.5, "q2": 0.5}},
			{From: "q1", Action: "done", To: map[string]float64{"q2": 1}},
		},
	}
}

func TestBuildValid(t *testing.T) {
	a, err := sample().Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "toy" || a.Start() != "q0" {
		t.Error("identity wrong")
	}
	if err := psioa.Validate(a, 100); err != nil {
		t.Errorf("Validate: %v", err)
	}
	d := a.Trans("q0", "step")
	if d.P("q1") != 0.5 {
		t.Errorf("P(q1) = %v", d.P("q1"))
	}
}

func TestBuildErrors(t *testing.T) {
	noID := sample()
	noID.ID = ""
	if _, err := noID.Build(); err == nil {
		t.Error("missing id accepted")
	}
	badMass := sample()
	badMass.Trans[0].To = map[string]float64{"q1": 0.9}
	if _, err := badMass.Build(); err == nil {
		t.Error("sub-stochastic transition accepted")
	}
	missing := sample()
	missing.Trans = missing.Trans[:1]
	if _, err := missing.Build(); err == nil {
		t.Error("missing transition (E1) accepted")
	}
}

func TestRoundTripFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.json")
	if err := spec.Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	a, err := spec.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "toy" {
		t.Error("round trip changed identity")
	}
	// Table → spec → table round trip preserves behaviour.
	back := spec.FromTable(a)
	a2, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sig("q0"), a2.Sig("q0")) {
		t.Error("signatures changed in round trip")
	}
	if a2.Trans("q0", "step").P("q2") != 0.5 {
		t.Error("transitions changed in round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := spec.Load("/nonexistent/file.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestResolveBuiltins(t *testing.T) {
	cases := []string{
		"coin:fair:x", "coin:biased:x:0.25", "coin:leaky:x:4", "coin:env:x",
		"chan:real:x", "chan:leaky:x:0.5", "chan:ideal:x", "chan:eaves:x",
		"chan:sim:x", "chan:env:x:1",
		"ledger:direct:x:2", "ledger:parity:x:1",
		"dynchan:real:x:1", "dynchan:ideal:x:1",
		"com:real:x", "com:ideal:x", "com:observer:x", "com:sim:x", "com:env:x:1",
		"flip:real:x:2", "flip:corrupt:x:2", "flip:ideal:x", "flip:weak:x", "flip:env:x",
	}
	for _, ref := range cases {
		a, err := spec.Resolve(ref)
		if err != nil {
			t.Errorf("Resolve(%q): %v", ref, err)
			continue
		}
		if err := psioa.Validate(a, 5000); err != nil {
			t.Errorf("Resolve(%q) invalid: %v", ref, err)
		}
	}
}

// TestBuiltin: a ref with a '/' or a .json suffix is a file, and Resolve
// loads it; every other ref is a builtin, resolved without reading a file.
func TestBuiltin(t *testing.T) {
	for ref, want := range map[string]bool{
		"coin:fair:x": true, "ledger:direct:x:2": true, "bogus": true,
		"a.json": false, "dir/a": false, "/abs/a.json": false, "./a": false,
	} {
		if got := spec.Builtin(ref); got != want {
			t.Errorf("Builtin(%q) = %v, want %v", ref, got, want)
		}
	}
	if _, err := spec.Resolve("missing.json"); err == nil || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Resolve of a missing .json ref = %v, want a file-not-found error", err)
	}
}

func TestResolveErrors(t *testing.T) {
	for _, ref := range []string{"bogus", "bogus:thing", "coin:nope:x", "coin:biased:x:notafloat", "ledger:direct:x:NaN", "com:nope:x", "flip:real:x:NaN", "dynchan:real:x:zzz", "com:env:x:notanint"} {
		if _, err := spec.Resolve(ref); err == nil {
			t.Errorf("Resolve(%q) accepted", ref)
		}
	}
}

func TestBuildStructured(t *testing.T) {
	a := sample()
	a.EnvActions = []string{"done"}
	s, err := a.BuildStructured()
	if err != nil {
		t.Fatal(err)
	}
	if !s.EAct("q1").Has("done") {
		t.Errorf("EAct(q1) = %v", s.EAct("q1"))
	}
	if len(s.EAct("q0")) != 0 {
		t.Errorf("EAct(q0) = %v (no external actions there)", s.EAct("q0"))
	}
	// Default: everything external is environment-facing.
	b := sample()
	sb, err := b.BuildStructured()
	if err != nil {
		t.Fatal(err)
	}
	if !sb.EAct("q1").Has("done") {
		t.Errorf("default EAct(q1) = %v", sb.EAct("q1"))
	}
	// Build errors propagate.
	bad := sample()
	bad.ID = ""
	if _, err := bad.BuildStructured(); err == nil {
		t.Error("invalid spec accepted")
	}
}
