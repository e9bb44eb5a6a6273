package pca

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/measure"
	"repro/internal/psioa"
)

// HiddenPCA is PCA hiding (Def 2.17): hide(X, h) is the PSIOA hiding
// hide(psioa(X), h) of Def 2.7, whose hidden-actions mapping extends X's
// by h(q). It embeds that psioa.Hidden, so it shares the table of any
// product X is.
type HiddenPCA struct {
	*psioa.Hidden
	x PCA
}

// HidePCA hides the state-dependent output set h on PCA X.
func HidePCA(x PCA, h func(q psioa.State) psioa.ActionSet) *HiddenPCA {
	return &HiddenPCA{Hidden: psioa.Hide(x, h), x: x}
}

// HidePCASet hides a fixed output set at every state. Def 2.17 requires
// h(q) ⊆ out(X)(q), so the fixed set is intersected with the outputs
// actually present at each state.
func HidePCASet(x PCA, s psioa.ActionSet) *HiddenPCA {
	fixed := s.Copy()
	return HidePCA(x, func(q psioa.State) psioa.ActionSet {
		return fixed.Intersect(x.Sig(q).Out.Union(x.HiddenActions(q)))
	})
}

// Config implements PCA.
func (h *HiddenPCA) Config(q psioa.State) *Config { return h.x.Config(q) }

// Created implements PCA.
func (h *HiddenPCA) Created(q psioa.State, a psioa.Action) []string {
	return h.x.Created(q, a)
}

// HiddenActions implements PCA per Def 2.17: hidden(X)(q) ∪ h(q).
func (h *HiddenPCA) HiddenActions(q psioa.State) psioa.ActionSet {
	return h.x.HiddenActions(q).Union(h.HiddenAt(q))
}

// Registry implements PCA.
func (h *HiddenPCA) Registry() Registry { return h.x.Registry() }

// unionRegistry resolves identifiers across several registries.
type unionRegistry []Registry

// Lookup implements Registry.
func (u unionRegistry) Lookup(id string) (psioa.PSIOA, bool) {
	for _, r := range u {
		if a, ok := r.Lookup(id); ok {
			return a, true
		}
	}
	return nil, false
}

// Product is the PCA partial composition X₁‖...‖Xₙ of Def 2.19:
// psioa(X) = psioa(X₁)‖...‖psioa(Xₙ), and at each composite state the
// configuration, creation and hidden-actions mappings are the unions of the
// component mappings at the projected states.
type Product struct {
	*psioa.Product
	pcas []PCA
	reg  unionRegistry
}

// ComposePCA builds the PCA composition. Arguments that are themselves PCA
// Products are flattened, mirroring psioa.Compose.
func ComposePCA(xs ...PCA) (*Product, error) {
	var flat []PCA
	for _, x := range xs {
		if p, ok := x.(*Product); ok {
			flat = append(flat, p.pcas...)
		} else {
			flat = append(flat, x)
		}
	}
	auts := make([]psioa.PSIOA, len(flat))
	regs := make(unionRegistry, len(flat))
	for i, x := range flat {
		auts[i] = x
		regs[i] = x.Registry()
	}
	base, err := psioa.Compose(auts...)
	if err != nil {
		return nil, err
	}
	return &Product{Product: base, pcas: flat, reg: regs}, nil
}

// MustComposePCA is ComposePCA that panics on error.
func MustComposePCA(xs ...PCA) *Product {
	p, err := ComposePCA(xs...)
	if err != nil {
		panic(err)
	}
	return p
}

// PCAs returns the (flattened) component PCAs.
func (p *Product) PCAs() []PCA { return p.pcas }

// Inner returns the embedded product, which p is a view of.
func (p *Product) Inner() psioa.PSIOA { return p.Product }

// Registry implements PCA.
func (p *Product) Registry() Registry { return p.reg }

// Config implements PCA per Def 2.19: the union of component
// configurations at the projected states. Component configurations must
// have disjoint automaton sets; a collision indicates the composed PCAs
// were not partially compatible.
func (p *Product) Config(q psioa.State) *Config {
	qs := p.Split(q)
	out := EmptyConfig()
	for i, x := range p.pcas {
		c := x.Config(qs[i])
		for _, id := range c.Auts() {
			if out.Has(id) {
				invalidf("pca: composed configurations both contain automaton %q at state %q", id, q)
			}
			st, _ := c.StateOf(id)
			out.states[id] = st
		}
	}
	return out
}

// Created implements PCA per Def 2.19: union over the components in whose
// signature the action occurs.
func (p *Product) Created(q psioa.State, a psioa.Action) []string {
	qs := p.Split(q)
	seen := map[string]bool{}
	var out []string
	for i, x := range p.pcas {
		if !x.Sig(qs[i]).Has(a) {
			continue // convention: created(Xi)(qi)(a) = ∅ when a ∉ sig
		}
		for _, id := range x.Created(qs[i], a) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// HiddenActions implements PCA per Def 2.19.
func (p *Product) HiddenActions(q psioa.State) psioa.ActionSet {
	qs := p.Split(q)
	out := psioa.NewActionSet()
	for i, x := range p.pcas {
		out.AddAll(x.HiddenActions(qs[i]))
	}
	return out
}

// ValidatePCA mechanically checks the PCA constraints of Def 2.16 on the
// reachable fragment (up to limit states):
//
//  1. start-state preservation,
//  2. top/down simulation: η_{X,q,a} ↔config η′ where
//     config(X)(q) ==a=>_{created(X)(q)(a)} η′,
//  3. bottom/up simulation: every intrinsic transition of the linked
//     configuration is matched by a transition of X (with constraint 4
//     this follows from 2, but supports are re-checked both ways),
//  4. action hiding: sig(X)(q) = hide(sig(config(X)(q)), hidden(q)),
//
// plus reducedness and compatibility of every linked configuration and
// hidden(q) ⊆ out(config(X)(q)).
func ValidatePCA(x PCA, limit int) (err error) {
	// Ill-formed PCAs (e.g. creation mappings violating φ ∩ A = ∅) surface
	// as validationPanic values from the transition machinery; report them
	// as validation failures rather than crashing the checker. Any other
	// panic is a bug in the PCA implementation itself (nil map, index out
	// of range, ...) and must propagate, not masquerade as "invalid input".
	defer func() {
		if r := recover(); r != nil {
			vp, ok := r.(validationPanic)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("pca: %q invalid: %v", x.ID(), vp.msg)
		}
	}()
	ex, err := psioa.Explore(x, limit)
	if err != nil {
		return err
	}
	reg := x.Registry()
	// Constraint 1.
	startCfg := x.Config(x.Start())
	for _, id := range startCfg.Auts() {
		aut, ok := reg.Lookup(id)
		if !ok {
			return fmt.Errorf("pca: %q: start configuration references unknown automaton %q", x.ID(), id)
		}
		q, _ := startCfg.StateOf(id)
		if q != aut.Start() {
			return fmt.Errorf("pca: %q: constraint 1 violated for %q: %q != start %q", x.ID(), id, q, aut.Start())
		}
	}
	for _, q := range ex.States {
		c := x.Config(q)
		ids, _, sigs, err := c.signatures(reg)
		if err == nil {
			err = compatible(ids, sigs)
		}
		if err != nil {
			return fmt.Errorf("pca: %q state %q: %w", x.ID(), q, err)
		}
		if slices.ContainsFunc(sigs, psioa.Signature.IsEmpty) {
			return fmt.Errorf("pca: %q state %q: configuration %v not reduced", x.ID(), q, c)
		}
		cSig := psioa.ComposeSignatures(sigs)
		hidden := x.HiddenActions(q)
		// hidden(q) ⊆ out(config(q)).
		if extra := hidden.Minus(cSig.Out); len(extra) > 0 {
			return fmt.Errorf("pca: %q state %q: hidden actions %v not outputs of the configuration", x.ID(), q, extra)
		}
		// Constraint 4.
		want := psioa.HideSignature(cSig, hidden)
		if !x.Sig(q).Equal(want) {
			return fmt.Errorf("pca: %q state %q: constraint 4 violated: sig=%v want %v", x.ID(), q, x.Sig(q), want)
		}
		// Constraints 2 and 3 for every enabled action.
		for a := range x.Sig(q).All() {
			created := x.Created(q, a)
			etaPrime, err := IntrinsicTrans(reg, c, a, created)
			if err != nil {
				return fmt.Errorf("pca: %q state %q action %q: %w", x.ID(), q, a, err)
			}
			etaX := x.Trans(q, a)
			// η_X ↔f η′ with f = config: bijection on supports preserving
			// probabilities (Def 2.15).
			seen := map[string]bool{}
			for _, q2 := range etaX.Support() {
				key := x.Config(q2).Key()
				if seen[key] {
					return fmt.Errorf("pca: %q state %q action %q: config mapping not injective on supp(η): duplicate %v", x.ID(), q, a, key)
				}
				seen[key] = true
				if math.Abs(etaX.P(q2)-etaPrime.P(key)) > measure.Eps {
					return fmt.Errorf("pca: %q state %q action %q: constraint 2 violated: P_X(%q)=%v but intrinsic P=%v", x.ID(), q, a, q2, etaX.P(q2), etaPrime.P(key))
				}
			}
			// Bottom/up: every intrinsic outcome is covered.
			for _, key := range etaPrime.Support() {
				if !seen[key] {
					return fmt.Errorf("pca: %q state %q action %q: constraint 3 violated: intrinsic outcome %v not matched", x.ID(), q, a, key)
				}
			}
		}
	}
	return nil
}

// DescAdapter wraps a PCA without changing it: it is still a PCA, and
// bounded.Describe measures it as one, but it is not a view (it defines
// no Inner), so it shares no product table and is walked through its
// PCA's own Sig, Trans and CompatAt. Describe takes a PCA directly; the
// adapter is kept only because bench/describe.go builds it.
type DescAdapter struct{ PCA }

// CompatAt is the wrapped PCA's compatibility.
func (d DescAdapter) CompatAt(q psioa.State) error { return psioa.CompatAt(d.PCA, q) }

// CreationMaskView renders the creation-oblivious view of an execution
// fragment of a PCA (§4.4): the sequence of actions interleaved with the
// configurations in which dynamically created automata (those outside base)
// are reduced to their *visible interface* — identifier plus current
// signature — while their internal state is masked. A scheduler factoring
// through this view reacts only to the action history and to what the
// created sub-automata expose through their signatures, never to their
// hidden internals; this is our executable rendering of the
// creation-oblivious scheduler schema that [7] shows necessary for
// monotonicity of implementation w.r.t. creation. (Signatures must stay
// visible: any scheduler that fires enabled actions — including the
// task schedules of [3] — observes them by definition.)
func CreationMaskView(x PCA, base []string) func(*psioa.Frag) string {
	baseSet := make(map[string]bool, len(base))
	for _, id := range base {
		baseSet[id] = true
	}
	reg := x.Registry()
	return func(f *psioa.Frag) string {
		parts := make([]string, 0, 2*f.Len()+1)
		for i := 0; i <= f.Len(); i++ {
			c := x.Config(f.StateAt(i))
			visible := map[string]string{}
			iface := map[string]string{}
			for _, id := range c.Auts() {
				st, _ := c.StateOf(id)
				if baseSet[id] {
					visible[id] = string(st)
					continue
				}
				aut, ok := reg.Lookup(id)
				if !ok {
					panic(fmt.Sprintf("pca: CreationMaskView: %q not in registry", id))
				}
				sig := aut.Sig(st)
				iface[id] = codec.EncodeTuple([]string{sig.In.Key(), sig.Out.Key(), sig.Int.Key()})
			}
			parts = append(parts, codec.EncodeTuple([]string{
				codec.EncodePairs(visible),
				codec.EncodePairs(iface),
			}))
			if i < f.Len() {
				parts = append(parts, string(f.ActionAt(i)))
			}
		}
		return codec.EncodeTuple(parts)
	}
}
