// Package bounded implements the resource-bounded layer of Section 4.1–4.5:
// b-time-bounded PSIOA and PCA (Defs 4.1–4.2), the boundedness of
// composition and hiding (Lemmas 4.3/4.5, B.1–B.3), bounded schedulers and
// scheduler families (Defs 4.6, 4.9–4.10), PSIOA families (Defs 4.7–4.8)
// and polynomial/negligible asymptotics.
//
// The paper states bounds in terms of Turing machines that decode the
// bit-string representations and compute next states in time ≤ b. We render
// this with two measurable quantities:
//
//   - description length: the maximum bit length of the canonical encodings
//     ⟨q⟩, ⟨a⟩, ⟨tr⟩ (and ⟨C⟩, ⟨φ⟩, ⟨h⟩ for PCA) over the reachable
//     fragment — Def 4.1 item 1 and Def 4.2 item 2 exactly;
//   - query work: an instrumented operation counter that charges each
//     Sig/Trans evaluation the number of bits it touches — the analogue of
//     the machines' running time.
//
// The lengths of ⟨tr⟩ and of the created set are counted, not built:
// escaping is local, so TransBits derives |⟨tr⟩| from each component's
// escaped size (codec.EscapedSize). EncodeTransition stays the definition;
// the tests hold the counted lengths equal to the encodings' bit lengths,
// on generated hostile components and on the automata of E1–E3.
//
// The lemma checks (CompositionBound, HidingBound) then verify the paper's
// linear bounds B(A₁‖A₂) ≤ c·(B₁+B₂) with explicit empirical constants.
package bounded

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/codec"
	"repro/internal/psioa"
)

// Desc is the description-length report of an automaton: the bit lengths of
// the canonical representations over the reachable fragment.
type Desc struct {
	// MaxStateBits is max |⟨q⟩| over reachable q.
	MaxStateBits int
	// MaxActionBits is max |⟨a⟩| over reachable actions.
	MaxActionBits int
	// MaxTransBits is max |⟨tr⟩| over reachable transitions (q, a, η).
	MaxTransBits int
	// MaxConfigBits, MaxCreatedBits, MaxHiddenBits are the PCA components
	// of Def 4.2 (zero for plain PSIOA).
	MaxConfigBits  int
	MaxCreatedBits int
	MaxHiddenBits  int
	// States is the number of reachable states inspected.
	States int
	// Truncated reports whether the exploration hit its limit.
	Truncated bool
}

// B returns the overall bound: the maximum of all component bit lengths —
// the least b for which the automaton is b-bounded in the description sense.
func (d *Desc) B() int {
	return max(d.PSIOABound(), d.MaxConfigBits, d.MaxCreatedBits, d.MaxHiddenBits)
}

// PSIOABound returns the bound of Def 4.1 alone: the maximum of the state,
// action and transition lengths. It is B of the same automaton described
// as a plain PSIOA, without the PCA components of Def 4.2.
func (d *Desc) PSIOABound() int {
	return max(d.MaxStateBits, d.MaxActionBits, d.MaxTransBits)
}

// String renders the report.
func (d *Desc) String() string {
	return fmt.Sprintf("B=%d (state=%d action=%d trans=%d config=%d created=%d hidden=%d, %d states%s)",
		d.B(), d.MaxStateBits, d.MaxActionBits, d.MaxTransBits, d.MaxConfigBits, d.MaxCreatedBits, d.MaxHiddenBits,
		d.States, truncStr(d.Truncated))
}

func truncStr(t bool) string {
	if t {
		return ", truncated"
	}
	return ""
}

// EncodeTransition produces ⟨tr⟩: the canonical bit-string representation
// of a transition (q, a, η), with the measure rendered as sorted
// (state, probability) pairs. It is the definition TransBits counts; the
// tests hold the two equal.
func EncodeTransition(q psioa.State, a psioa.Action, eta *psioa.Dist) string {
	support := eta.Support()
	sort.Slice(support, func(i, j int) bool { return support[i] < support[j] })
	pairs := make([]string, len(support))
	for i, s := range support {
		pairs[i] = codec.EncodeTuple([]string{string(s), strconv.FormatFloat(eta.P(s), 'g', 17, 64)})
	}
	return codec.EncodeTuple([]string{string(q), string(a), codec.EncodeTuple(pairs)})
}

// TransBits returns |⟨tr⟩| = codec.BitLen(EncodeTransition(q, a, eta)),
// counted from each component's escaped size without building the
// encoding. Order does not change a length, so η's weights are read in map
// order through ForEach, and the measure's sorted view is never built.
// ForEach visits supp(η), the elements of positive mass; EncodeTransition
// renders the same pairs for every measure built by Add or FromMap, which
// drop zero weights.
func TransBits(q psioa.State, a psioa.Action, eta *psioa.Dist) int {
	// Each pair ⟨s, p⟩ is one component of the measure tuple ⟨η⟩. Its
	// special (sep or esc) bytes are its separator and the escaped state's;
	// the formatted mass has none. Escaped into ⟨η⟩, the pair grows by one
	// byte per special byte, and each special byte becomes two.
	var buf [32]byte
	pairs, etaLen, etaSpecial := 0, 0, 0
	eta.ForEach(func(s psioa.State, p float64) {
		sn, ss := codec.EscapedSize(string(s))
		special := ss + 1
		etaLen += sn + 1 + len(strconv.AppendFloat(buf[:0], p, 'g', 17, 64)) + special
		etaSpecial += 2 * special
		pairs++
	})
	// ⟨η⟩ itself, escaped as the third component of ⟨tr⟩: the empty tuple
	// "()" escapes to 4 bytes; otherwise add the separators between pairs,
	// once as bytes and once more as their escapes.
	etaEsc := 4
	if pairs > 0 {
		etaEsc = etaLen + etaSpecial + 2*(pairs-1)
	}
	qn, _ := codec.EscapedSize(string(q))
	an, _ := codec.EscapedSize(string(a))
	return 8 * (qn + an + etaEsc + 2)
}

// pcaLike exposes the PCA attributes needed by Def 4.2 without importing
// the pca package (avoiding a dependency cycle: pca builds on psioa only).
type pcaLike interface {
	ConfigKey(q psioa.State) string
	CreatedIDs(q psioa.State, a psioa.Action) []string
	HiddenSet(q psioa.State) psioa.ActionSet
}

// Describe computes the description-length report of the automaton over its
// reachable fragment (bounded by limit states). If the automaton implements
// the PCA attribute accessors (see PCAAdapter), the configuration, created
// and hidden-actions encodings of Def 4.2 are measured as well.
func Describe(a psioa.PSIOA, limit int) (*Desc, error) {
	ex, err := psioa.Explore(a, limit)
	if err != nil {
		return nil, err
	}
	d := &Desc{States: len(ex.States), Truncated: ex.Truncated}
	pl, isPCA := a.(pcaLike)
	for _, q := range ex.States {
		if n := codec.BitLen(string(q)); n > d.MaxStateBits {
			d.MaxStateBits = n
		}
		sig := ex.Sigs[q]
		if isPCA {
			if n := codec.BitLen(pl.ConfigKey(q)); n > d.MaxConfigBits {
				d.MaxConfigBits = n
			}
			if n := codec.BitLen(pl.HiddenSet(q).Key()); n > d.MaxHiddenBits {
				d.MaxHiddenBits = n
			}
		}
		for act := range sig.All() {
			if n := codec.BitLen(string(act)); n > d.MaxActionBits {
				d.MaxActionBits = n
			}
			if n := TransBits(q, act, a.Trans(q, act)); n > d.MaxTransBits {
				d.MaxTransBits = n
			}
			if isPCA {
				if n := setBits(pl.CreatedIDs(q, act)); n > d.MaxCreatedBits {
					d.MaxCreatedBits = n
				}
			}
		}
	}
	return d, nil
}

// setBits returns codec.BitLen(codec.EncodeSortedSet(elems)), counted
// without the sorted copy: a tuple's length does not depend on its order.
func setBits(elems []string) int {
	if len(elems) == 0 {
		return codec.BitLen(codec.EncodeTuple(nil))
	}
	n := len(elems) - 1
	for _, e := range elems {
		en, _ := codec.EscapedSize(e)
		n += en
	}
	return 8 * n
}

// BoundReport is the result of an empirical linear-bound check for
// composition (Lemma 4.3) or hiding (Lemma 4.5).
type BoundReport struct {
	// B1, B2 are the component bounds; B12 the bound of the combined
	// automaton.
	B1, B2, B12 int
	// C is the empirical constant B12 / (B1 + B2).
	C float64
}

// String renders the report.
func (r *BoundReport) String() string {
	return fmt.Sprintf("B1=%d B2=%d B12=%d c=%.3f", r.B1, r.B2, r.B12, r.C)
}

// CompositionBound measures the empirical constant of Lemma 4.3/B.1:
// B(A₁‖A₂) ≤ c_comp · (B(A₁)+B(A₂)). The lemma asserts a universal
// constant exists; the report exposes the measured ratio for this instance.
func CompositionBound(a1, a2 psioa.PSIOA, limit int) (*BoundReport, error) {
	d1, err := Describe(a1, limit)
	if err != nil {
		return nil, err
	}
	d2, err := Describe(a2, limit)
	if err != nil {
		return nil, err
	}
	return CompositionBoundFrom(d1.B(), d2.B(), a1, a2, limit)
}

// CompositionBoundFrom is CompositionBound for components whose bounds
// b1 = B(A₁) and b2 = B(A₂) are already known: it describes only A₁‖A₂.
func CompositionBoundFrom(b1, b2 int, a1, a2 psioa.PSIOA, limit int) (*BoundReport, error) {
	p, err := psioa.Compose(a1, a2)
	if err != nil {
		return nil, err
	}
	d12, err := Describe(p, limit)
	if err != nil {
		return nil, err
	}
	r := &BoundReport{B1: b1, B2: b2, B12: d12.B()}
	if s := b1 + b2; s > 0 {
		r.C = float64(r.B12) / float64(s)
	}
	return r, nil
}

// HidingBound measures the empirical constant of Lemma 4.5/B.3:
// B(hide(A,S)) ≤ c_hide · (B(A) + B(S)), where B(S) is the bit length of
// the canonical encoding of the hidden set (our rendering of "S is b′-time
// recognizable": the recogniser is table-driven with description
// proportional to the set encoding).
func HidingBound(a psioa.PSIOA, s psioa.ActionSet, limit int) (*BoundReport, error) {
	da, err := Describe(a, limit)
	if err != nil {
		return nil, err
	}
	dh, err := Describe(psioa.HideSet(a, s), limit)
	if err != nil {
		return nil, err
	}
	bS := codec.BitLen(s.Key())
	r := &BoundReport{B1: da.B(), B2: bS, B12: dh.B()}
	if sum := da.B() + bS; sum > 0 {
		r.C = float64(dh.B()) / float64(sum)
	}
	return r, nil
}
