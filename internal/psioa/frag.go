package psioa

import (
	"fmt"
	"sync/atomic"

	"repro/internal/codec"
)

// Frag is an execution fragment (Def 2.2): an alternating sequence
// q⁰ a¹ q¹ a² ... ending with a state. Frags are immutable and persistent:
// Extend returns a new fragment that shares its prefix with the receiver
// via a parent pointer, so extending is O(1) and n extensions of one
// fragment cost O(n) total instead of O(n²) slice copying. The canonical
// key is computed incrementally from the parent's cached key.
//
// The lazily cached key is published atomically: racing first Key() calls
// compute the same string and either store wins, so any reader may key any
// fragment, including those of execution measures shared through the
// engine cache.
type Frag struct {
	parent *Frag // nil iff Len() == 0
	root   *Frag // first fragment of the chain (self for roots)
	act    Action
	last   State
	key    atomic.Pointer[string] // write-once canonical key, nil until keyed
	depth  int32                  // Len()
}

// NewFrag returns the zero-length fragment at q0.
func NewFrag(q0 State) *Frag {
	f := &Frag{last: q0}
	f.root = f
	return f
}

// FromAlternating builds a fragment from explicit state and action slices.
func FromAlternating(states []State, actions []Action) (*Frag, error) {
	if len(states) != len(actions)+1 {
		return nil, fmt.Errorf("psioa: fragment needs len(states)==len(actions)+1, got %d/%d", len(states), len(actions))
	}
	f := NewFrag(states[0])
	for i, a := range actions {
		f = f.Extend(a, states[i+1])
	}
	return f, nil
}

// Len returns |α|, the number of transitions along the fragment.
func (f *Frag) Len() int { return int(f.depth) }

// FState returns fstate(α), the first state.
func (f *Frag) FState() State { return f.root.last }

// LState returns lstate(α), the last state.
func (f *Frag) LState() State { return f.last }

// Parent returns the immediate prefix of f (everything but the final
// transition), or nil for zero-length fragments. Walking Parent pointers
// enumerates exactly the prefixes of f, longest first.
func (f *Frag) Parent() *Frag { return f.parent }

// chain returns the fragments from root to f, indexed by depth.
func (f *Frag) chain() []*Frag {
	out := make([]*Frag, f.depth+1)
	for g := f; g != nil; g = g.parent {
		out[g.depth] = g
	}
	return out
}

// States returns a copy of the state sequence.
func (f *Frag) States() []State {
	out := make([]State, f.depth+1)
	for g := f; g != nil; g = g.parent {
		out[g.depth] = g.last
	}
	return out
}

// Actions returns a copy of the action sequence.
func (f *Frag) Actions() []Action {
	out := make([]Action, f.depth)
	for g := f; g.parent != nil; g = g.parent {
		out[g.depth-1] = g.act
	}
	return out
}

// at returns the fragment prefix of length i.
func (f *Frag) at(i int) *Frag {
	g := f
	for int(g.depth) > i {
		g = g.parent
	}
	return g
}

// StateAt returns qⁱ.
func (f *Frag) StateAt(i int) State { return f.at(i).last }

// ActionAt returns aⁱ⁺¹ (the action leaving state i).
func (f *Frag) ActionAt(i int) Action { return f.at(i + 1).act }

// Extend returns the fragment α⌢(a, q′) = α lstate(α) a q′ in O(1), sharing
// α as the new fragment's prefix.
func (f *Frag) Extend(a Action, q State) *Frag {
	return &Frag{parent: f, root: f.root, act: a, last: q, depth: f.depth + 1}
}

// Concat implements the ⌢ operator: α⌢α′ is defined only when
// fstate(α′) == lstate(α). The cost is O(|α′|); the receiver is shared.
func (f *Frag) Concat(g *Frag) (*Frag, error) {
	if g.FState() != f.LState() {
		return nil, fmt.Errorf("psioa: concat undefined: lstate %q != fstate %q", f.LState(), g.FState())
	}
	out := f
	for _, h := range g.chain()[1:] {
		out = out.Extend(h.act, h.last)
	}
	return out, nil
}

// IsPrefixOf reports whether f ≤ g (f is a prefix of g). It walks g's
// ancestors to f's depth and compares chains upward, so it is O(depth) and
// O(1) extra space; fragments from the same expansion tree short-circuit on
// pointer equality as soon as the chains join.
func (f *Frag) IsPrefixOf(g *Frag) bool {
	if f.depth > g.depth {
		return false
	}
	y := g.at(int(f.depth))
	for x := f; x != y; x, y = x.parent, y.parent {
		if x.last != y.last {
			return false
		}
		if x.parent == nil {
			// Both chains are at their roots (depths are equal) and the
			// states matched.
			return true
		}
		if x.act != y.act {
			return false
		}
	}
	return true
}

// IsProperPrefixOf reports whether f < g.
func (f *Frag) IsProperPrefixOf(g *Frag) bool {
	return f.depth < g.depth && f.IsPrefixOf(g)
}

// Key returns a canonical injective encoding of the fragment, used as the
// support element of execution measures. Keys are cached: the first call
// extends the nearest keyed ancestor's cached key incrementally, so keying
// every prefix of an execution (the Measure expansion pattern) does one
// append per step instead of re-encoding the whole alternating sequence.
func (f *Frag) Key() string {
	if k := f.key.Load(); k != nil {
		return *k
	}
	if f.parent != nil {
		if pk := f.parent.key.Load(); pk != nil {
			// Fast path: one append off the parent's cached key (the
			// expansion pattern, where prefixes are keyed before their
			// extensions).
			return *f.setKey(codec.AppendToTuple(*pk, string(f.act), string(f.last)))
		}
	}
	// Collect the unkeyed suffix of the chain, deepest first.
	var pending []*Frag
	g := f
	for g.parent != nil && g.key.Load() == nil {
		pending = append(pending, g)
		g = g.parent
	}
	k := g.key.Load()
	if k == nil {
		k = g.setKey(codec.EncodeTuple([]string{string(g.last)}))
	}
	for i := len(pending) - 1; i >= 0; i-- {
		h := pending[i]
		k = h.setKey(codec.AppendToTuple(*k, string(h.act), string(h.last)))
	}
	return *k
}

// setKey publishes k as the fragment's key.
func (f *Frag) setKey(k string) *string {
	f.key.Store(&k)
	return &k
}

// FragFromKey decodes a fragment key produced by Key.
func FragFromKey(key string) (*Frag, error) {
	parts, err := codec.DecodeTuple(key)
	if err != nil {
		return nil, err
	}
	if len(parts)%2 == 0 {
		return nil, fmt.Errorf("psioa: fragment key %q has even length %d", key, len(parts))
	}
	f := NewFrag(State(parts[0]))
	for i := 1; i < len(parts); i += 2 {
		f = f.Extend(Action(parts[i]), State(parts[i+1]))
	}
	return f, nil
}

// Trace returns trace(α) w.r.t. automaton A: the restriction of the action
// sequence to the actions that are external in the signature of the state
// they leave (Def 2.2).
func (f *Frag) Trace(a PSIOA) []Action {
	var tr []Action
	for _, h := range f.chain()[1:] {
		sig := a.Sig(h.parent.last)
		if sig.In.Has(h.act) || sig.Out.Has(h.act) {
			tr = append(tr, h.act)
		}
	}
	return tr
}

// TraceKey returns a canonical encoding of Trace for use as an insight
// value.
func (f *Frag) TraceKey(a PSIOA) string {
	tr := f.Trace(a)
	parts := make([]string, len(tr))
	for i, act := range tr {
		parts[i] = string(act)
	}
	return codec.EncodeTuple(parts)
}

// IsExecOf reports whether f is an execution fragment of A: every step
// (qⁱ, aⁱ⁺¹, qⁱ⁺¹) must be in steps(A).
func (f *Frag) IsExecOf(a PSIOA) bool {
	for _, h := range f.chain()[1:] {
		q := h.parent.last
		if !a.Sig(q).Has(h.act) {
			return false
		}
		if a.Trans(q, h.act).P(h.last) <= 0 {
			return false
		}
	}
	return true
}

// String renders the fragment for diagnostics.
func (f *Frag) String() string {
	s := string(f.root.last)
	for _, h := range f.chain()[1:] {
		s += fmt.Sprintf(" --%s--> %s", h.act, h.last)
	}
	return s
}
