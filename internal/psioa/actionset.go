package psioa

import (
	"sort"
	"strings"

	"repro/internal/codec"
)

// Action is an action name. The paper treats actions as opaque elements of a
// countable universe; we use strings, with structured names (e.g.
// "send(m,1)") by convention.
type Action string

// State is a state name. Composite automata use canonical tuple encodings
// (internal/codec) so that states remain comparable map keys.
type State string

// ActionSet is a finite set of actions.
type ActionSet map[Action]struct{}

// NewActionSet builds a set from the given actions.
func NewActionSet(as ...Action) ActionSet {
	s := make(ActionSet, len(as))
	for _, a := range as {
		s[a] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s ActionSet) Has(a Action) bool {
	_, ok := s[a]
	return ok
}

// Add inserts a into s.
func (s ActionSet) Add(a Action) { s[a] = struct{}{} }

// AddAll inserts every action of t into s: s becomes s ∪ t. Use it only
// on a set the caller owns, never on one a callee returned.
func (s ActionSet) AddAll(t ActionSet) {
	for a := range t {
		s[a] = struct{}{}
	}
}

// Copy returns an independent copy.
func (s ActionSet) Copy() ActionSet {
	c := make(ActionSet, len(s))
	for a := range s {
		c[a] = struct{}{}
	}
	return c
}

// Union returns s ∪ t.
func (s ActionSet) Union(t ActionSet) ActionSet {
	u := s.Copy()
	u.AddAll(t)
	return u
}

// Minus returns s \ t.
func (s ActionSet) Minus(t ActionSet) ActionSet {
	d := make(ActionSet)
	for a := range s {
		if !t.Has(a) {
			d[a] = struct{}{}
		}
	}
	return d
}

// Intersect returns s ∩ t.
func (s ActionSet) Intersect(t ActionSet) ActionSet {
	i := make(ActionSet)
	for a := range s {
		if t.Has(a) {
			i[a] = struct{}{}
		}
	}
	return i
}

// Disjoint reports whether s ∩ t = ∅.
func (s ActionSet) Disjoint(t ActionSet) bool {
	small, big := s, t
	if len(big) < len(small) {
		small, big = big, small
	}
	for a := range small {
		if big.Has(a) {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s ActionSet) Equal(t ActionSet) bool {
	if len(s) != len(t) {
		return false
	}
	for a := range s {
		if !t.Has(a) {
			return false
		}
	}
	return true
}

// Sorted returns the elements in lexicographic order.
func (s ActionSet) Sorted() []Action {
	out := make([]Action, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Key returns a canonical encoding of the set, usable as a map key.
func (s ActionSet) Key() string {
	elems := make([]string, 0, len(s))
	for a := range s {
		elems = append(elems, string(a))
	}
	return codec.EncodeSortedSet(elems)
}

// String renders the set deterministically for diagnostics.
func (s ActionSet) String() string {
	parts := make([]string, 0, len(s))
	for _, a := range s.Sorted() {
		parts = append(parts, string(a))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// MapActions returns { f(a) | a ∈ s }.
func (s ActionSet) MapActions(f func(Action) Action) ActionSet {
	out := make(ActionSet, len(s))
	for a := range s {
		out[f(a)] = struct{}{}
	}
	return out
}
