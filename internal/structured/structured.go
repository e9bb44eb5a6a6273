// Package structured implements the security layer's structured automata
// (Section 4.7): PSIOA extended with an environment-action mapping EAct
// that partitions external actions into environment-facing and
// adversary-facing ones (Def 4.17), structured compatibility and
// composition (Defs 4.18–4.19), hiding on structured automata, and
// structured configurations/PCA (Defs 4.20–4.22, Lemma 4.23).
package structured

import (
	"fmt"

	"repro/internal/psioa"
)

// SPSIOA is a structured PSIOA (Def 4.17): a PSIOA together with an
// environment action mapping EAct with EAct(q) ⊆ ext(A)(q).
type SPSIOA interface {
	psioa.PSIOA
	// EAct returns the environment actions at state q.
	EAct(q psioa.State) psioa.ActionSet
}

// Structured wraps a PSIOA with an explicit environment-action mapping.
type Structured struct {
	psioa.PSIOA
	// EActFn maps each state to its environment actions. nil means all
	// external actions are environment actions (no adversary interface).
	EActFn func(q psioa.State) psioa.ActionSet
}

// New wraps a with the given environment-action mapping.
func New(a psioa.PSIOA, eact func(q psioa.State) psioa.ActionSet) *Structured {
	return &Structured{PSIOA: a, EActFn: eact}
}

// NewSet wraps a with a state-independent environment-action set: at every
// state the environment actions are ext(q) ∩ set.
func NewSet(a psioa.PSIOA, set psioa.ActionSet) *Structured {
	fixed := set.Copy()
	return &Structured{PSIOA: a, EActFn: func(q psioa.State) psioa.ActionSet {
		return a.Sig(q).Ext().Intersect(fixed)
	}}
}

// EAct implements SPSIOA.
func (s *Structured) EAct(q psioa.State) psioa.ActionSet {
	if s.EActFn == nil {
		return s.Sig(q).Ext()
	}
	return s.EActFn(q)
}

// CompatAt delegates to the wrapped automaton.
func (s *Structured) CompatAt(q psioa.State) error {
	if cc, ok := s.PSIOA.(interface{ CompatAt(psioa.State) error }); ok {
		return cc.CompatAt(q)
	}
	return nil
}

// AAct returns the adversary action mapping AAct(q) = ext(q) \ EAct(q)
// (Def 4.17).
func AAct(s SPSIOA, q psioa.State) psioa.ActionSet {
	return s.Sig(q).Ext().Minus(s.EAct(q))
}

// EI returns the environment inputs EAct(q) ∩ in(q).
func EI(s SPSIOA, q psioa.State) psioa.ActionSet { return s.EAct(q).Intersect(s.Sig(q).In) }

// EO returns the environment outputs EAct(q) ∩ out(q).
func EO(s SPSIOA, q psioa.State) psioa.ActionSet { return s.EAct(q).Intersect(s.Sig(q).Out) }

// AI returns the adversary inputs AAct(q) ∩ in(q).
func AI(s SPSIOA, q psioa.State) psioa.ActionSet { return AAct(s, q).Intersect(s.Sig(q).In) }

// AO returns the adversary outputs AAct(q) ∩ out(q).
func AO(s SPSIOA, q psioa.State) psioa.ActionSet { return AAct(s, q).Intersect(s.Sig(q).Out) }

// Validate checks Def 4.17's constraint EAct(q) ⊆ ext(q) on the reachable
// fragment, on top of the underlying PSIOA validity.
func Validate(s SPSIOA, limit int) error {
	if err := psioa.Validate(s, limit); err != nil {
		return err
	}
	ex, err := psioa.Explore(s, limit)
	if err != nil {
		return err
	}
	for _, q := range ex.States {
		if extra := s.EAct(q).Minus(s.Sig(q).Ext()); len(extra) > 0 {
			return fmt.Errorf("structured: %q state %q: EAct contains non-external actions %v", s.ID(), q, extra)
		}
	}
	return nil
}

// AActUniverse returns the union of AAct over the reachable states — the
// AAct_A set used by hide(A‖Adv, AAct_A) in the secure-emulation layer.
func AActUniverse(s SPSIOA, limit int) (psioa.ActionSet, error) {
	ex, err := psioa.Explore(s, limit)
	if err != nil {
		return nil, err
	}
	out := psioa.NewActionSet()
	for _, q := range ex.States {
		out.AddAll(AAct(s, q))
	}
	return out, nil
}

// EActUniverse returns the union of EAct over the reachable states.
func EActUniverse(s SPSIOA, limit int) (psioa.ActionSet, error) {
	ex, err := psioa.Explore(s, limit)
	if err != nil {
		return nil, err
	}
	out := psioa.NewActionSet()
	for _, q := range ex.States {
		out.AddAll(s.EAct(q))
	}
	return out, nil
}

// CheckCompatible verifies structured partial compatibility (Def 4.18) on
// the reachable fragment of the composition: the automata are partially
// compatible as PSIOA, and at every reachable state every shared action is
// an environment action of both.
func CheckCompatible(limit int, ss ...SPSIOA) error {
	auts := make([]psioa.PSIOA, len(ss))
	for i, s := range ss {
		auts[i] = s
	}
	p, err := psioa.Compose(auts...)
	if err != nil {
		return err
	}
	ex, err := psioa.Explore(p, limit)
	if err != nil {
		return err
	}
	for _, q := range ex.States {
		qs := p.Split(q)
		for i := range ss {
			for j := i + 1; j < len(ss); j++ {
				shared := ss[i].Sig(qs[i]).All().Intersect(ss[j].Sig(qs[j]).All())
				envBoth := ss[i].EAct(qs[i]).Intersect(ss[j].EAct(qs[j]))
				if !shared.Equal(envBoth) {
					return fmt.Errorf("structured: %q and %q share non-environment actions %v at state %q",
						ss[i].ID(), ss[j].ID(), shared.Minus(envBoth), q)
				}
			}
		}
	}
	return nil
}

// Product is the structured composition of Def 4.19:
// (A₁,EAct₁)‖(A₂,EAct₂) = (A₁‖A₂, EAct₁ ∪ EAct₂).
type Product struct {
	*psioa.Product
	comps []SPSIOA
}

// Compose builds the structured composition, flattening nested structured
// products.
func Compose(ss ...SPSIOA) (*Product, error) {
	var flat []SPSIOA
	for _, s := range ss {
		if p, ok := s.(*Product); ok {
			flat = append(flat, p.comps...)
		} else {
			flat = append(flat, s)
		}
	}
	auts := make([]psioa.PSIOA, len(flat))
	for i, s := range flat {
		auts[i] = s
	}
	base, err := psioa.Compose(auts...)
	if err != nil {
		return nil, err
	}
	return &Product{Product: base, comps: flat}, nil
}

// MustCompose is Compose that panics on error.
func MustCompose(ss ...SPSIOA) *Product {
	p, err := Compose(ss...)
	if err != nil {
		panic(err)
	}
	return p
}

// Components returns the flattened structured components.
func (p *Product) Components() []SPSIOA { return p.comps }

// EAct implements SPSIOA per Def 4.19: the union of the component
// environment actions at the projected states.
func (p *Product) EAct(q psioa.State) psioa.ActionSet {
	qs := p.Split(q)
	out := psioa.NewActionSet()
	for i, s := range p.comps {
		out.AddAll(s.EAct(qs[i]))
	}
	return out
}

// Hidden is hiding on structured automata (§4.7):
// hide((A,EAct), S) = (hide(A,S), EAct \ S).
type Hidden struct {
	*psioa.Hidden
	inner SPSIOA
	s     func(q psioa.State) psioa.ActionSet
}

// Hide hides the state-dependent output set on a structured automaton.
func Hide(inner SPSIOA, s func(q psioa.State) psioa.ActionSet) *Hidden {
	return &Hidden{Hidden: psioa.Hide(inner, s), inner: inner, s: s}
}

// HideSet hides a fixed output set at every state.
func HideSet(inner SPSIOA, set psioa.ActionSet) *Hidden {
	fixed := set.Copy()
	return Hide(inner, func(psioa.State) psioa.ActionSet { return fixed })
}

// EAct implements SPSIOA: EAct(q) \ S(q).
func (h *Hidden) EAct(q psioa.State) psioa.ActionSet {
	return h.inner.EAct(q).Minus(h.s(q))
}
