// Package psioa implements probabilistic signature input/output automata
// (Section 2 of the paper): state signatures, compatibility and composition
// (Defs 2.3–2.5, 2.18), hiding and renaming (Defs 2.6–2.8, Lemma A.1), and
// execution fragments, executions and traces (Def 2.2).
//
// A PSIOA A = (Q_A, q̄_A, sig(A), D_A) is rendered as an interface: states
// and actions are strings, the signature is a function of the current state,
// and Trans(q, a) returns the unique probability measure η_{(A,q,a)} of the
// transition enabled at q by a (constraint E1 of Def 2.1: every action in
// the signature is enabled).
package psioa

import (
	"fmt"

	"repro/internal/measure"
)

// Dist is the transition-target measure type: a discrete probability
// measure over states.
type Dist = measure.Dist[State]

// PSIOA is a probabilistic signature input/output automaton (Def 2.1).
//
// Implementations must satisfy, for every reachable state q:
//   - Sig(q) has mutually disjoint in/out/int components;
//   - for every a ∈ Sig(q).All(), Trans(q, a) is a probability measure
//     (action enabling, assumption E1);
//   - Trans(q, a) panics for a ∉ Sig(q).All() — asking to step a disabled
//     action is a caller bug, not an input error.
//
// Validate (explore.go) checks these properties on the reachable fragment.
type PSIOA interface {
	// ID returns the automaton identifier (an element of Autids).
	ID() string
	// Start returns the unique start state q̄.
	Start() State
	// Sig returns the state signature sig(A)(q).
	Sig(q State) Signature
	// Trans returns η_{(A,q,a)}, the unique transition measure for the
	// enabled action a at state q.
	Trans(q State, a Action) *Dist
}

// compatAtChecker is implemented by automata whose signature computation
// can fail at a state: a product whose components are incompatible there,
// a PCA whose configuration is not compatible, a renaming that is not
// injective. Explore uses it to report the failure as an error rather
// than a panic.
type compatAtChecker interface {
	CompatAt(q State) error
}

// A view is the automaton its Inner returns, with the same states, action
// set and transitions, seen with some actions reclassified (hiding, Defs
// 2.7 and 2.17) or with extra structure (Atomic; structured automata, Def
// 4.17; the compositions that embed a Product, Defs 2.19 and 4.19). A
// view adds no compatibility condition of its own. What the two share is
// found by following Inner: the product whose table a walk reads
// (productOf) and the compatibility checker (CompatAt). A view that
// reclassifies is a Hidden, or embeds one (HiddenAt). A wrapper that
// changes the action set or the transitions (renaming, input enabling),
// or that must be walked through its own Trans (instrumentation), is not
// a view and must not define Inner.
type view interface {
	Inner() PSIOA
}

// checkerOf returns a's own compatibility checker if it has one, else
// that of the automaton a views, else nil.
func checkerOf(a PSIOA) compatAtChecker {
	for {
		if cc, ok := a.(compatAtChecker); ok {
			return cc
		}
		v, ok := a.(view)
		if !ok {
			return nil
		}
		a = v.Inner()
	}
}

// CompatAt reports a's compatibility at q: a's own CompatAt if it has
// one, else that of the automaton a views (following Inner), else nil. A
// wrapper that is not a view forwards its compatibility as
// CompatAt(inner, q).
func CompatAt(a PSIOA, q State) error {
	if cc := checkerOf(a); cc != nil {
		return cc.CompatAt(q)
	}
	return nil
}

// Steps returns the support of the transition measure, i.e. the states q′
// with (q, a, q′) ∈ steps(A).
func Steps(a PSIOA, q State, act Action) []State {
	return a.Trans(q, act).Support()
}

// Enabled reports whether act ∈ sig(A)(q)^.
func Enabled(a PSIOA, q State, act Action) bool {
	return a.Sig(q).Has(act)
}

// disabledPanic is the uniform panic for stepping a disabled action.
func disabledPanic(id string, q State, a Action) {
	panic(fmt.Sprintf("psioa: automaton %q: action %q not enabled at state %q", id, a, q))
}

// Null returns the trivial automaton with a single state and no actions.
// It is the unit of composition and serves as the "no environment"
// environment for checks on closed systems.
func Null(id string) PSIOA {
	return &Func{
		Name:    id,
		StartSt: "·",
		SigFn:   func(State) Signature { return EmptySignature() },
		TransFn: func(q State, a Action) *Dist {
			panic(fmt.Sprintf("psioa: null automaton %q has no transitions", id))
		},
	}
}

// InputEnabled wraps an automaton so that every action of the given input
// universe is enabled (as an ignoring self-loop) at every state where it is
// not otherwise in the signature — the classic I/O-automata input-enabling
// completion, convenient for building environments that must tolerate
// outputs they do not track.
type InputEnabled struct {
	inner    PSIOA
	universe ActionSet
}

// InputEnable wraps a with ignoring self-loops for the universe's inputs.
// Actions already in a state's signature keep their behaviour there.
func InputEnable(a PSIOA, universe ActionSet) *InputEnabled {
	return &InputEnabled{inner: a, universe: universe.Copy()}
}

// ID implements PSIOA.
func (ie *InputEnabled) ID() string { return "ie(" + ie.inner.ID() + ")" }

// Start implements PSIOA.
func (ie *InputEnabled) Start() State { return ie.inner.Start() }

// Sig implements PSIOA: the inner signature with the missing universe
// actions added as inputs.
func (ie *InputEnabled) Sig(q State) Signature {
	sig := ie.inner.Sig(q)
	if missing := ie.universe.Minus(sig.All()); len(missing) > 0 {
		sig = Signature{In: sig.In.Union(missing), Out: sig.Out.Copy(), Int: sig.Int.Copy()}
	}
	return sig
}

// Trans implements PSIOA: added inputs are ignoring self-loops.
func (ie *InputEnabled) Trans(q State, a Action) *Dist {
	if ie.inner.Sig(q).Has(a) {
		return ie.inner.Trans(q, a)
	}
	if !ie.universe.Has(a) {
		disabledPanic(ie.ID(), q, a)
	}
	return measure.Dirac(q)
}

// CompatAt is the wrapped automaton's compatibility.
func (ie *InputEnabled) CompatAt(q State) error { return CompatAt(ie.inner, q) }

// Func is a PSIOA defined by closures, for automata whose state space is
// large or unbounded (only reachable states under bounded schedulers are
// ever evaluated).
type Func struct {
	Name      string
	StartSt   State
	SigFn     func(State) Signature
	TransFn   func(State, Action) *Dist
	CompatErr func(State) error // optional; nil means always compatible
}

// ID implements PSIOA.
func (f *Func) ID() string { return f.Name }

// Start implements PSIOA.
func (f *Func) Start() State { return f.StartSt }

// Sig implements PSIOA.
func (f *Func) Sig(q State) Signature { return f.SigFn(q) }

// Trans implements PSIOA.
func (f *Func) Trans(q State, a Action) *Dist {
	if !f.SigFn(q).Has(a) {
		disabledPanic(f.Name, q, a)
	}
	return f.TransFn(q, a)
}

// CompatAt implements compatAtChecker when CompatErr is provided.
func (f *Func) CompatAt(q State) error {
	if f.CompatErr == nil {
		return nil
	}
	return f.CompatErr(q)
}
