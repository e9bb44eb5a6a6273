// Package adversary implements the adversary layer of Section 4.8: the
// adversary predicate for structured automata (Def 4.24, Lemma 4.25), the
// dummy adversary (Def 4.27) and the Forward^e / Forward^s constructions
// used by the dummy-adversary insertion lemma (Lemma 4.29, Appendix D).
package adversary

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/structured"
)

// Interface is the (universal) adversary interface of a structured
// automaton: the unions of its adversary inputs and outputs over reachable
// states. The dummy adversary of Def 4.27 is parameterised by these sets.
type Interface struct {
	// AI is the universal set of adversary inputs of A.
	AI psioa.ActionSet
	// AO is the universal set of adversary outputs of A.
	AO psioa.ActionSet
}

// InterfaceOf computes the adversary interface of s over its reachable
// fragment. An action's direction can vary with the state in composed
// protocols — e.g. a player's share announcement is an adversary *output*
// once the player offers it but appears as an unmatched composite *input*
// beforehand — so classification prioritises the output role: AO collects
// everything that is ever an adversary output, and AI only the adversary
// inputs that are never outputs (the genuinely adversary-driven commands).
// This keeps the dummy adversary's forwarding direction well-defined.
func InterfaceOf(s structured.SPSIOA, limit int) (*Interface, error) {
	aiAll := psioa.NewActionSet()
	aoAll := psioa.NewActionSet()
	visit := func(_ uint32, q psioa.State, acts []psioa.Action, roles []psioa.Role) {
		// AAct(q) = ext(q) \ EAct(q), and what in it is not an output is
		// an input.
		env := s.EAct(q)
		for k, a := range acts {
			if roles[k]&psioa.Out != 0 && !env.Has(a) {
				aoAll.Add(a)
			} else if roles[k]&psioa.In != 0 && !env.Has(a) {
				aiAll.Add(a)
			}
		}
	}
	if _, err := psioa.Walk(nil, s, limit, nil, psioa.StateFunc(visit)); err != nil {
		return nil, err
	}
	return &Interface{AI: aiAll.Minus(aoAll), AO: aoAll}, nil
}

// AAct returns the universal adversary action set AI ∪ AO, which is the
// union of AAct(q) over the reachable states (the AAct_A of
// hide(A‖Adv, AAct_A)).
func (i *Interface) AAct() psioa.ActionSet { return i.AI.Union(i.AO) }

// IsAdversaryFor checks Def 4.24 on the reachable fragment of A‖Adv:
//
//   - Adv is partially compatible with A;
//   - Adv drives A's adversary inputs: AI_A ⊆ out(Adv), read over the
//     reachable unions. (Def 4.24 states the inclusion per state, but the
//     per-state reading rejects the paper's own dummy adversary — whose
//     output set is empty whenever pending = ⊥ (Def 4.27) — and the
//     Theorem 4.30 simulator built from it. We therefore adopt the
//     capability reading: the adversary can drive every adversary input
//     somewhere, not at every instant. See DESIGN.md §2.)
//   - Adv never touches A's environment interface, at every reachable
//     state: EAct_A(q_A) ∩ sig(Adv)(q_Adv) = ∅. This is the
//     security-critical condition and is kept per-state.
func IsAdversaryFor(adv psioa.PSIOA, s structured.SPSIOA, limit int) error {
	// Atoms keep the composite state a pair (q_A, q_Adv) even when either
	// side is itself a composition.
	p, err := psioa.Compose(psioa.Atom(s), psioa.Atom(adv))
	if err != nil {
		return err
	}
	// AI_A, AO_A and EAct_A depend only on the host's state q_A, and
	// sig(Adv) only on q_Adv, so each is evaluated once per component
	// state ID; the overlap is checked at every product state, in BFS
	// order, and reported after any incompatibility the walk finds.
	aiUnion := psioa.NewActionSet()
	aoUnion := psioa.NewActionSet()
	advOutUnion := psioa.NewActionSet()
	eact := make(map[uint32]psioa.ActionSet)
	advActs := make(map[uint32]psioa.ActionSet)
	var touch error
	visit := func(id uint32, q psioa.State, _ []psioa.Action, _ []psioa.Role) {
		ia, qa := p.ComponentAt(id, 0)
		env, ok := eact[ia]
		if !ok {
			// AI and AO are the inputs and outputs in AAct = ext \ EAct.
			env = s.EAct(qa)
			sig := s.Sig(qa)
			aiUnion.AddAll(sig.In.Minus(env))
			aoUnion.AddAll(sig.Out.Minus(env))
			eact[ia] = env
		}
		iv, qadv := p.ComponentAt(id, 1)
		acts, ok := advActs[iv]
		if !ok {
			sig := adv.Sig(qadv)
			advOutUnion.AddAll(sig.Out)
			acts = sig.All()
			advActs[iv] = acts
		}
		if touch == nil && !env.Disjoint(acts) {
			touch = fmt.Errorf("adversary: %q touches environment actions %v of %q at state %q", adv.ID(), env.Intersect(acts), s.ID(), q)
		}
	}
	if _, err := psioa.Walk(nil, p, limit, nil, psioa.StateFunc(visit)); err != nil {
		return fmt.Errorf("adversary: %q not partially compatible with %q: %w", adv.ID(), s.ID(), err)
	}
	if touch != nil {
		return touch
	}
	// Genuine adversary commands are the adversary inputs never produced by
	// the protocol itself (see InterfaceOf on mixed-direction actions).
	if missing := aiUnion.Minus(aoUnion).Minus(advOutUnion); len(missing) > 0 {
		return fmt.Errorf("adversary: %q does not drive adversary inputs %v of %q", adv.ID(), missing, s.ID())
	}
	return nil
}

// dummyBot is the ⊥ pending value of the dummy adversary.
const dummyBot = "bot"

func dummyState(pending string) psioa.State {
	return psioa.State(codec.EncodeTagged("dummy", pending))
}

func dummyPending(q psioa.State) (string, error) {
	tag, parts, err := codec.DecodeTagged(string(q))
	if err != nil || tag != "dummy" || len(parts) != 1 {
		return "", fmt.Errorf("adversary: %q is not a dummy state", q)
	}
	return parts[0], nil
}

// DummyAdv is the dummy adversary Dummy(A, g) of Def 4.27: a pure forwarder
// between a structured automaton A (speaking its real adversary actions)
// and an outer adversary (speaking the g-renamed fresh actions). Its state
// is a single pending slot holding the last unforwarded action (or ⊥).
type DummyAdv struct {
	id    string
	iface *Interface
	g     map[psioa.Action]psioa.Action
	ginv  map[psioa.Action]psioa.Action
	// inSet is the constant input set AO_A ∪ g(AI_A).
	inSet psioa.ActionSet
}

// Dummy builds the dummy adversary for the given interface and renaming.
// g must be a bijection defined on all of AI ∪ AO, mapping onto fresh
// action names (disjoint from AI ∪ AO).
func Dummy(id string, iface *Interface, g map[psioa.Action]psioa.Action) (*DummyAdv, error) {
	aact := iface.AAct()
	for a := range aact {
		if _, ok := g[a]; !ok {
			return nil, fmt.Errorf("adversary: renaming g undefined on adversary action %q", a)
		}
	}
	ginv := make(map[psioa.Action]psioa.Action, len(g))
	for a, b := range g {
		if aact.Has(b) {
			return nil, fmt.Errorf("adversary: renamed action %q is not fresh", b)
		}
		if _, dup := ginv[b]; dup {
			return nil, fmt.Errorf("adversary: renaming g is not injective at %q", b)
		}
		ginv[b] = a
	}
	in := iface.AO.Copy()
	for a := range iface.AI {
		in.Add(g[a])
	}
	return &DummyAdv{id: id, iface: iface, g: g, ginv: ginv, inSet: in}, nil
}

// MustDummy is Dummy that panics on error.
func MustDummy(id string, iface *Interface, g map[psioa.Action]psioa.Action) *DummyAdv {
	d, err := Dummy(id, iface, g)
	if err != nil {
		panic(err)
	}
	return d
}

// ID implements PSIOA.
func (d *DummyAdv) ID() string { return d.id }

// Start implements PSIOA: pending = ⊥.
func (d *DummyAdv) Start() psioa.State { return dummyState(dummyBot) }

// G returns the renaming.
func (d *DummyAdv) G() map[psioa.Action]psioa.Action { return d.g }

// Interface returns the adversary interface the dummy forwards for.
func (d *DummyAdv) Interface() *Interface { return d.iface }

// Sig implements PSIOA per Def 4.27: inputs are constantly AO ∪ g(AI); the
// output is the pending action's forward, when a forward is due.
func (d *DummyAdv) Sig(q psioa.State) psioa.Signature {
	pending, err := dummyPending(q)
	if err != nil {
		panic(err)
	}
	out := psioa.NewActionSet()
	if pending != dummyBot {
		p := psioa.Action(pending)
		switch {
		case d.iface.AO.Has(p):
			out.Add(d.g[p]) // forward A's adversary output, renamed
		case d.ginv[p] != "" && d.iface.AI.Has(d.ginv[p]):
			out.Add(d.ginv[p]) // forward the outer adversary's command to A
		default:
			panic(fmt.Sprintf("adversary: dummy %q has invalid pending %q", d.id, pending))
		}
	}
	return psioa.Signature{In: d.inSet.Copy(), Out: out, Int: psioa.NewActionSet()}
}

// Trans implements PSIOA: inputs load the pending slot, outputs clear it.
// All transitions are Dirac.
func (d *DummyAdv) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	sig := d.Sig(q)
	if !sig.Has(a) {
		panic(fmt.Sprintf("adversary: dummy %q: action %q not enabled at %q", d.id, a, q))
	}
	if sig.In.Has(a) && !sig.Out.Has(a) {
		return measure.Dirac(dummyState(string(a)))
	}
	return measure.Dirac(dummyState(dummyBot))
}

// ForwardOf returns the action the dummy will emit for a given pending
// value: g(a) for a ∈ AO, g⁻¹(b) for b ∈ g(AI).
func (d *DummyAdv) ForwardOf(pending psioa.Action) (psioa.Action, error) {
	if d.iface.AO.Has(pending) {
		return d.g[pending], nil
	}
	if orig, ok := d.ginv[pending]; ok && d.iface.AI.Has(orig) {
		return orig, nil
	}
	return "", fmt.Errorf("adversary: %q is not a forwardable pending value", pending)
}
