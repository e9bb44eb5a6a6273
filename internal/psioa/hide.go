package psioa

// Hidden is the hiding operator of Def 2.7: hide(A, h) reclassifies, at each
// state q, the output actions h(q) as internal actions. States and
// transitions are untouched, so Hidden is a view of A (Inner): it walks
// A's product table, if A is or views a product, and its compatibility
// is A's.
type Hidden struct {
	inner PSIOA
	h     func(State) ActionSet
}

// Hide applies the state-dependent hiding function h to A.
func Hide(a PSIOA, h func(State) ActionSet) *Hidden {
	return &Hidden{inner: a, h: h}
}

// HideSet hides a fixed set of output actions at every state — the common
// special case used by the secure-emulation layer (hide(A‖Adv, AAct_A)).
func HideSet(a PSIOA, s ActionSet) *Hidden {
	fixed := s.Copy()
	return Hide(a, func(State) ActionSet { return fixed })
}

// ID implements PSIOA.
func (h *Hidden) ID() string { return "hide(" + h.inner.ID() + ")" }

// Inner returns the wrapped automaton.
func (h *Hidden) Inner() PSIOA { return h.inner }

// HiddenAt returns the hiding set h(q).
func (h *Hidden) HiddenAt(q State) ActionSet { return h.h(q) }

// Start implements PSIOA.
func (h *Hidden) Start() State { return h.inner.Start() }

// Sig implements PSIOA per Def 2.6. It is not cached: a product over
// hide(A) interns each component signature once per component state.
func (h *Hidden) Sig(q State) Signature { return HideSignature(h.inner.Sig(q), h.h(q)) }

// Trans implements PSIOA: transitions are unchanged by hiding, and so is
// the set of enabled actions.
func (h *Hidden) Trans(q State, a Action) *Dist {
	if !h.inner.Sig(q).Has(a) {
		disabledPanic(h.ID(), q, a)
	}
	return h.inner.Trans(q, a)
}
