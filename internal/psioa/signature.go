package psioa

import (
	"fmt"
	"slices"
)

// Signature is a state signature sig(A)(q) = (in, out, int): three mutually
// disjoint sets of input, output and internal actions (Def 2.1).
type Signature struct {
	In  ActionSet
	Out ActionSet
	Int ActionSet
}

// Role is an action's classification in a signature, a set of In, Out
// and Int bits: exactly one in a disjoint signature (Def 2.1).
type Role uint8

const (
	In Role = 1 << iota
	Out
	Int
)

// appendRoles appends to dst the role in sig of each of acts.
func appendRoles(dst []Role, sig Signature, acts []Action) []Role {
	for _, a := range acts {
		var r Role
		for i, set := range [...]ActionSet{sig.In, sig.Out, sig.Int} {
			if set.Has(a) {
				r |= 1 << i
			}
		}
		dst = append(dst, r)
	}
	return dst
}

// NewSignature builds a signature from the given action lists.
func NewSignature(in, out, internal []Action) Signature {
	return Signature{In: NewActionSet(in...), Out: NewActionSet(out...), Int: NewActionSet(internal...)}
}

// EmptySignature returns the empty signature; an automaton whose current
// signature is empty is considered destroyed when it occurs inside a
// configuration (Def 2.12).
func EmptySignature() Signature {
	return Signature{In: NewActionSet(), Out: NewActionSet(), Int: NewActionSet()}
}

// Has reports whether a is in the signature (in ∪ out ∪ int) without
// allocating the union set; prefer it to All().Has on hot paths.
func (s Signature) Has(a Action) bool {
	return s.In.Has(a) || s.Out.Has(a) || s.Int.Has(a)
}

// SortedAll returns sig^ = in ∪ out ∪ int in lexicographic order, in a
// fresh slice. Nothing is memoized: a product's table calls it once per
// interned component signature, and the walk once per other visited state.
func SortedAll(sig Signature) []Action { return sortedActs(sig, false) }

// SortedLocal returns the locally controlled actions out ∪ int in
// lexicographic order, in a fresh slice.
func SortedLocal(sig Signature) []Action { return sortedActs(sig, true) }

func sortedActs(sig Signature, local bool) []Action {
	n := len(sig.Out) + len(sig.Int)
	if !local {
		n += len(sig.In)
	}
	acts := make([]Action, 0, n)
	if !local {
		for a := range sig.In {
			acts = append(acts, a)
		}
	}
	for a := range sig.Out {
		acts = append(acts, a)
	}
	for a := range sig.Int {
		acts = append(acts, a)
	}
	slices.Sort(acts)
	// Valid signatures are disjoint; compact duplicates anyway so invalid
	// ones (checked later by Validate) still yield set semantics.
	return slices.Compact(acts)
}

// ResetSortMemo does nothing. Sorted signatures are no longer memoized
// process-wide, so there is nothing to reset; it is kept because the
// benchmark harness (bench/harness.go) still calls it between workloads.
func ResetSortMemo() {}

// Ext returns the external actions in ∪ out.
func (s Signature) Ext() ActionSet { return s.In.Union(s.Out) }

// All returns the full action set sig^ = in ∪ out ∪ int.
func (s Signature) All() ActionSet { return s.In.Union(s.Out).Union(s.Int) }

// IsEmpty reports whether the signature has no actions at all.
func (s Signature) IsEmpty() bool {
	return len(s.In) == 0 && len(s.Out) == 0 && len(s.Int) == 0
}

// CheckDisjoint verifies the mutual disjointness required by Def 2.1.
func (s Signature) CheckDisjoint() error {
	if !s.In.Disjoint(s.Out) {
		return fmt.Errorf("psioa: in/out overlap: %v", s.In.Intersect(s.Out))
	}
	if !s.In.Disjoint(s.Int) {
		return fmt.Errorf("psioa: in/int overlap: %v", s.In.Intersect(s.Int))
	}
	if !s.Out.Disjoint(s.Int) {
		return fmt.Errorf("psioa: out/int overlap: %v", s.Out.Intersect(s.Int))
	}
	return nil
}

// Copy returns an independent copy of the signature.
func (s Signature) Copy() Signature {
	return Signature{In: s.In.Copy(), Out: s.Out.Copy(), Int: s.Int.Copy()}
}

// Equal reports componentwise set equality.
func (s Signature) Equal(t Signature) bool {
	return s.In.Equal(t.In) && s.Out.Equal(t.Out) && s.Int.Equal(t.Int)
}

// String renders the signature deterministically.
func (s Signature) String() string {
	return fmt.Sprintf("(in:%v out:%v int:%v)", s.In, s.Out, s.Int)
}

// CompatibleSignatures checks pairwise compatibility per Def 2.3: for any
// two distinct signatures, (in ∪ out ∪ int) ∩ int′ = ∅ and out ∩ out′ = ∅.
// Membership is probed directly so the compatible (common) case allocates
// nothing; the offending intersections are materialised only for errors.
func CompatibleSignatures(sigs []Signature) error {
	for i := range sigs {
		for j := range sigs {
			if i == j {
				continue
			}
			si, sj := sigs[i], sigs[j]
			for a := range sj.Int {
				if si.In.Has(a) || si.Out.Has(a) || si.Int.Has(a) {
					return fmt.Errorf("psioa: signature %d shares actions %v with internal actions of signature %d",
						i, si.All().Intersect(sj.Int), j)
				}
			}
			if i < j {
				for a := range si.Out {
					if sj.Out.Has(a) {
						return fmt.Errorf("psioa: signatures %d and %d share output actions %v",
							i, j, si.Out.Intersect(sj.Out))
					}
				}
			}
		}
	}
	return nil
}

// ComposeSignatures implements Def 2.4 for n signatures:
// Σ₁ × ... × Σₙ = (∪in − ∪out, ∪out, ∪int). The signatures must be
// compatible; this is not re-checked here.
func ComposeSignatures(sigs []Signature) Signature {
	nIn, nOut, nInt := 0, 0, 0
	for _, s := range sigs {
		nIn += len(s.In)
		nOut += len(s.Out)
		nInt += len(s.Int)
	}
	in := make(ActionSet, nIn)
	out := make(ActionSet, nOut)
	internal := make(ActionSet, nInt)
	for _, s := range sigs {
		for a := range s.In {
			in[a] = struct{}{}
		}
		for a := range s.Out {
			out[a] = struct{}{}
		}
		for a := range s.Int {
			internal[a] = struct{}{}
		}
	}
	for a := range out {
		delete(in, a)
	}
	return Signature{In: in, Out: out, Int: internal}
}

// HideSignature implements Def 2.6: hide(sig, S) moves the hidden output
// actions out ∩ S into the internal set.
func HideSignature(sig Signature, hidden ActionSet) Signature {
	moved := sig.Out.Intersect(hidden)
	return Signature{
		In:  sig.In.Copy(),
		Out: sig.Out.Minus(hidden),
		Int: sig.Int.Union(moved),
	}
}
