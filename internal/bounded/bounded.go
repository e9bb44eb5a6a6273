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
// Describe is one exploration walk (psioa.Walk). It counts ⟨q⟩, ⟨a⟩ and
// ⟨tr⟩ from the states, sorted actions and successor lists the walk
// visits, and totals the query work of the same walk, so it never calls
// Trans itself. An automaton that shares a product's state table (the
// product, a PCA or structured composition embedding it, and hiding or
// Atomic over any of these) supplies its successors from that table and
// builds no product measure; a wrapper that shares no table, such as
// Instrumented, is walked through its Trans. A pca.PCA is described
// directly, with the PCA components of Def 4.2. QueryWork, which explores
// an Instrumented wrapper and is charged by its Sig and Trans, is the
// reference the tests hold Describe's query work equal to.
//
// The lemma checks (CompositionBound, HidingBound) then verify the paper's
// linear bounds B(A₁‖A₂) ≤ c·(B₁+B₂) with explicit empirical constants.
package bounded

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/codec"
	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/resilience"
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
	// States is the number of reachable states inspected, and Actions the
	// number of distinct actions in their signatures.
	States, Actions int
	// QueryMaxBits and QueryTotalBits are the query work of the walk: the
	// largest single charge and the sum of the charges that Instrumented
	// makes for the same walk (see QueryWork).
	QueryMaxBits, QueryTotalBits int64
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
	var t transLen
	eta.ForEach(func(s psioa.State, p float64) {
		sn, ss := codec.EscapedSize(string(s))
		t.pair(sn, ss, massLen(p))
	})
	qn, _ := codec.EscapedSize(string(q))
	an, _ := codec.EscapedSize(string(a))
	return t.bits(qn, an)
}

// transLen counts |⟨tr⟩| one pair ⟨s, p⟩ of η at a time.
type transLen struct{ pairs, etaLen, etaSpecial int }

// massLen is the length of p as EncodeTransition formats it.
func massLen(p float64) int {
	var buf [32]byte
	return len(strconv.AppendFloat(buf[:0], p, 'g', 17, 64))
}

// pair counts ⟨s, p⟩, where s has escaped size sn with ss special bytes
// and massLen(p) = pn. Each pair is one component of the tuple ⟨η⟩. Its
// special (sep or esc) bytes are its separator and the escaped state's;
// the mass has none. Escaped into ⟨η⟩, the pair grows by one byte per
// special byte, and each special byte becomes two.
func (t *transLen) pair(sn, ss, pn int) {
	special := ss + 1
	t.etaLen += sn + 1 + pn + special
	t.etaSpecial += 2 * special
	t.pairs++
}

// bits returns |⟨tr⟩| for a state and action of escaped sizes qn and an.
func (t *transLen) bits(qn, an int) int {
	// ⟨η⟩ itself, escaped as the third component of ⟨tr⟩: the empty tuple
	// "()" escapes to 4 bytes; otherwise add the separators between pairs,
	// once as bytes and once more as their escapes.
	etaEsc := 4
	if t.pairs > 0 {
		etaEsc = t.etaLen + t.etaSpecial + 2*(t.pairs-1)
	}
	return 8 * (qn + an + etaEsc + 2)
}

// Describe computes the description-length report of the automaton over its
// reachable fragment (bounded by limit states). If the automaton is a
// pca.PCA, the configuration, created and hidden-actions encodings of
// Def 4.2 are measured as well.
func Describe(a psioa.PSIOA, limit int) (*Desc, error) {
	return DescribeCtx(nil, a, limit, nil)
}

// DescribeCtx is Describe under ctx and the work budget b, which the walk
// polls and charges as psioa.ExploreCtx does. It returns no report when
// the walk stops early: on cancellation, on a deadline or when b runs out.
func DescribeCtx(ctx context.Context, a psioa.PSIOA, limit int, b *resilience.Budget) (*Desc, error) {
	v := &describer{d: &Desc{}, massLens: make(map[float64]int)}
	v.x, _ = a.(pca.PCA)
	ex, err := psioa.Walk(ctx, a, limit, b, v)
	if err != nil {
		return nil, err
	}
	d := v.d
	d.States, d.Actions, d.Truncated = len(ex.States), len(ex.Acts), ex.Truncated
	return d, nil
}

// describer is Describe's visitor. It counts the lengths of each state and
// transition the walk visits, and charges the query work that Instrumented
// charges for the Sig and Trans evaluations of the same walk.
type describer struct {
	d    *Desc
	x    pca.PCA // nil unless the automaton is a PCA
	q    psioa.State
	qn   int // escaped size of q
	acts []psioa.Action
	// sizes holds each state's escaped size by walk ID, so a state is
	// counted once however many transitions lead to it.
	sizes    []escSize
	massLens map[float64]int // massLen of the walk's masses, dropped with it
}

// escSize is codec.EscapedSize of a state: n is one more than the size,
// and 0 marks a state not yet counted.
type escSize struct{ n, special int32 }

func (v *describer) charge(bits int) {
	v.d.QueryTotalBits += int64(bits)
	v.d.QueryMaxBits = max(v.d.QueryMaxBits, int64(bits))
}

// escaped returns codec.EscapedSize(q) for the state with walk ID id.
func (v *describer) escaped(id uint32, q psioa.State) (n, special int) {
	if int(id) >= len(v.sizes) {
		v.sizes = append(v.sizes, make([]escSize, int(id)+1-len(v.sizes))...)
	}
	e := &v.sizes[id]
	if e.n == 0 {
		n, special := codec.EscapedSize(string(q))
		e.n, e.special = int32(n+1), int32(special)
	}
	return int(e.n - 1), int(e.special)
}

// State counts ⟨q⟩, the actions of q and, for a PCA, ⟨C⟩ and ⟨h⟩; its
// query work is Sig's: the bits of q and of every action of sig(q).
func (v *describer) State(id uint32, q psioa.State, acts []psioa.Action, _ []psioa.Role) {
	d := v.d
	v.q, v.acts = q, acts
	v.qn, _ = v.escaped(id, q)
	work := codec.BitLen(string(q))
	d.MaxStateBits = max(d.MaxStateBits, work)
	for _, act := range acts {
		n := codec.BitLen(string(act))
		d.MaxActionBits = max(d.MaxActionBits, n)
		work += n
	}
	v.charge(work)
	if v.x != nil {
		d.MaxConfigBits = max(d.MaxConfigBits, codec.BitLen(v.x.Config(q).Key()))
		d.MaxHiddenBits = max(d.MaxHiddenBits, codec.BitLen(v.x.HiddenActions(q).Key()))
	}
}

// Trans counts ⟨tr⟩ for (q, acts[k], η), whose support and masses are
// succ, and, for a PCA, the created set; its query work is Trans's: |⟨tr⟩|.
func (v *describer) Trans(k int, succ []psioa.Succ) {
	d, act := v.d, v.acts[k]
	var t transLen
	for _, s := range succ {
		sn, ss := v.escaped(s.ID, s.Q)
		pn, ok := v.massLens[s.P]
		if !ok {
			pn = massLen(s.P)
			v.massLens[s.P] = pn
		}
		t.pair(sn, ss, pn)
	}
	an, _ := codec.EscapedSize(string(act))
	n := t.bits(v.qn, an)
	d.MaxTransBits = max(d.MaxTransBits, n)
	v.charge(n)
	if v.x != nil {
		d.MaxCreatedBits = max(d.MaxCreatedBits, setBits(v.x.Created(v.q, act)))
	}
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
	return CompositionBoundFrom(nil, d1.B(), d2.B(), a1, a2, limit, nil)
}

// CompositionBoundFrom is CompositionBound for components whose bounds
// b1 = B(A₁) and b2 = B(A₂) are already known: it describes only A₁‖A₂,
// under ctx and the work budget bud as DescribeCtx does.
func CompositionBoundFrom(ctx context.Context, b1, b2 int, a1, a2 psioa.PSIOA, limit int, bud *resilience.Budget) (*BoundReport, error) {
	p, err := psioa.Compose(a1, a2)
	if err != nil {
		return nil, err
	}
	d12, err := DescribeCtx(ctx, p, limit, bud)
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
