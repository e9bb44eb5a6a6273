package psioa_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/testaut"
)

func TestBuilderValid(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	if c.ID() != "c" || c.Start() != "q0" {
		t.Errorf("ID/Start wrong: %q %q", c.ID(), c.Start())
	}
	d := c.Trans("q0", "flip_c")
	if math.Abs(d.P("h")-0.5) > 1e-9 || math.Abs(d.P("t")-0.5) > 1e-9 {
		t.Errorf("flip measure wrong: %v", d)
	}
	if err := psioa.Validate(c, 100); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderRejectsMissingStart(t *testing.T) {
	_, err := psioa.NewBuilder("x", "nowhere").Build()
	if err == nil || !strings.Contains(err.Error(), "start state") {
		t.Errorf("expected start-state error, got %v", err)
	}
}

func TestBuilderRejectsUnenabledTransition(t *testing.T) {
	_, err := psioa.NewBuilder("x", "q").
		AddState("q", psioa.EmptySignature()).
		AddDet("q", "a", "q").
		Build()
	if err == nil {
		t.Error("expected error for transition outside signature")
	}
}

func TestBuilderRejectsMissingTransition(t *testing.T) {
	_, err := psioa.NewBuilder("x", "q").
		AddState("q", psioa.NewSignature(nil, []psioa.Action{"a"}, nil)).
		Build()
	if err == nil || !strings.Contains(err.Error(), "E1") {
		t.Errorf("expected action-enabling (E1) error, got %v", err)
	}
}

func TestBuilderRejectsSubProbTransition(t *testing.T) {
	d := measure.New[psioa.State]()
	d.Add("q", 0.5)
	_, err := psioa.NewBuilder("x", "q").
		AddState("q", psioa.NewSignature(nil, []psioa.Action{"a"}, nil)).
		AddTrans("q", "a", d).
		Build()
	if err == nil || !strings.Contains(err.Error(), "mass") {
		t.Errorf("expected mass error, got %v", err)
	}
}

func TestBuilderRejectsUndeclaredTarget(t *testing.T) {
	_, err := psioa.NewBuilder("x", "q").
		AddState("q", psioa.NewSignature(nil, []psioa.Action{"a"}, nil)).
		AddDet("q", "a", "ghost").
		Build()
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("expected undeclared-target error, got %v", err)
	}
}

func TestBuilderRejectsOverlappingSignature(t *testing.T) {
	_, err := psioa.NewBuilder("x", "q").
		AddState("q", psioa.NewSignature([]psioa.Action{"a"}, []psioa.Action{"a"}, nil)).
		AddDet("q", "a", "q").
		Build()
	if err == nil {
		t.Error("expected signature disjointness error")
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	_, err := psioa.NewBuilder("x", "q").
		AddState("q", psioa.EmptySignature()).
		AddState("q", psioa.EmptySignature()).
		Build()
	if err == nil {
		t.Error("expected duplicate-state error")
	}
	_, err = psioa.NewBuilder("x", "q").
		AddState("q", psioa.NewSignature(nil, []psioa.Action{"a"}, nil)).
		AddDet("q", "a", "q").
		AddDet("q", "a", "q").
		Build()
	if err == nil {
		t.Error("expected duplicate-transition error")
	}
}

func TestTransPanicsOnDisabled(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic stepping disabled action")
		}
	}()
	c.Trans("q0", "heads_c")
}

func TestSigPanicsOnUnknownState(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown state")
		}
	}()
	c.Sig("nope")
}

func TestFuncAutomaton(t *testing.T) {
	// Unbounded counter as a functional automaton.
	inc := psioa.Action("inc")
	f := &psioa.Func{
		Name:    "unbounded",
		StartSt: "0",
		SigFn: func(q psioa.State) psioa.Signature {
			return psioa.NewSignature(nil, []psioa.Action{inc}, nil)
		},
		TransFn: func(q psioa.State, a psioa.Action) *psioa.Dist {
			n := 0
			for i := 0; i < len(q); i++ {
				n = n*10 + int(q[i]-'0')
			}
			return measure.Dirac(psioa.State(itoa(n + 1)))
		},
	}
	q := f.Start()
	for i := 0; i < 5; i++ {
		q = f.Trans(q, inc).Support()[0]
	}
	if q != "5" {
		t.Errorf("counter state = %q, want 5", q)
	}
	defer func() {
		if recover() == nil {
			t.Error("Func.Trans should panic on disabled action")
		}
	}()
	f.Trans("0", "nope")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestBuilderErrorTexts: Build reports a missing transition (E1), a
// transition of mass other than 1 and an undeclared target with the same
// text whichever of in, out and int holds the action, and a transition
// outside the signature.
func TestBuilderErrorTexts(t *testing.T) {
	half := measure.New[psioa.State]()
	half.Add("q", 0.5)
	sigs := map[string]func(...psioa.Action) psioa.Signature{
		"in":  func(a ...psioa.Action) psioa.Signature { return psioa.NewSignature(a, nil, nil) },
		"out": func(a ...psioa.Action) psioa.Signature { return psioa.NewSignature(nil, a, nil) },
		"int": func(a ...psioa.Action) psioa.Signature { return psioa.NewSignature(nil, nil, a) },
	}
	for role, sig := range sigs {
		for _, tc := range []struct {
			build func(*psioa.Builder) *psioa.Builder
			want  string
		}{
			{func(b *psioa.Builder) *psioa.Builder { return b },
				`psioa: automaton "x": action "a" enabled at "q" has no transition (violates E1)`},
			{func(b *psioa.Builder) *psioa.Builder { return b.AddTrans("q", "a", half) },
				`psioa: automaton "x": transition ("q","a") has total mass 0.5, want 1`},
			{func(b *psioa.Builder) *psioa.Builder { return b.AddDet("q", "a", "ghost") },
				`psioa: automaton "x": transition ("q","a") targets undeclared state "ghost"`},
			{func(b *psioa.Builder) *psioa.Builder { return b.AddDet("q", "a", "q").AddDet("q", "b", "q") },
				`psioa: automaton "x": transition for "b" at "q" but the action is not in the signature`},
		} {
			_, err := tc.build(psioa.NewBuilder("x", "q").AddState("q", sig("a"))).Build()
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: Build error %v, want %s", role, err, tc.want)
			}
		}
	}
}
