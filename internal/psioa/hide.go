package psioa

import "sync"

// Hidden is the hiding operator of Def 2.7: hide(A, h) reclassifies, at each
// state q, the output actions h(q) as internal actions. States and
// transitions are untouched.
type Hidden struct {
	inner PSIOA
	h     func(State) ActionSet

	mu       sync.Mutex
	sigCache map[State]Signature
}

// Hide applies the state-dependent hiding function h to A.
func Hide(a PSIOA, h func(State) ActionSet) *Hidden {
	return &Hidden{inner: a, h: h, sigCache: make(map[State]Signature)}
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

func (h *Hidden) sharedProduct() *Product { return productOf(h.inner) }

// Start implements PSIOA.
func (h *Hidden) Start() State { return h.inner.Start() }

// Sig implements PSIOA per Def 2.6. Results are cached per state.
func (h *Hidden) Sig(q State) Signature {
	h.mu.Lock()
	if sig, ok := h.sigCache[q]; ok {
		h.mu.Unlock()
		return sig
	}
	h.mu.Unlock()
	sig := HideSignature(h.inner.Sig(q), h.h(q))
	h.mu.Lock()
	h.sigCache[q] = sig
	h.mu.Unlock()
	return sig
}

// Trans implements PSIOA: transitions are unchanged by hiding.
func (h *Hidden) Trans(q State, a Action) *Dist {
	if !h.Sig(q).Has(a) {
		disabledPanic(h.ID(), q, a)
	}
	return h.inner.Trans(q, a)
}

// CompatAt delegates to the wrapped automaton.
func (h *Hidden) CompatAt(q State) error {
	if cc, ok := h.inner.(compatAtChecker); ok {
		return cc.CompatAt(q)
	}
	return nil
}
