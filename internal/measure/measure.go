// Package measure implements the discrete probability theory of Section 2.1:
// discrete (sub-)probability measures Disc(S)/SubDisc(S) on countable sets,
// Dirac measures, product measures, image measures, supports, and the
// distribution distances used by the balanced-scheduler relation (Def 3.6).
//
// Measures are represented as finite support maps from elements to weights.
// Elements must be comparable; throughout the framework they are canonical
// string encodings (see internal/codec), so Dist[string] is the workhorse.
package measure

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync/atomic"
)

// Eps is the tolerance used when comparing probabilities and totals. Exact
// rational arithmetic would be overkill: every measure in the framework is
// built from user-supplied float weights and finitely many products/sums.
const Eps = 1e-9

// Dist is a discrete sub-probability measure over T: a finite-support
// weight function with total mass ≤ 1 (+Eps slack). A Dist with total mass 1
// is a probability measure, i.e. an element of Disc(T); with mass < 1 it is
// an element of SubDisc(T) as used by schedulers (Def 3.1), where the
// deficit 1 − |η| is the halting probability.
type Dist[T comparable] struct {
	w map[T]float64
	// cdf is the lazily built sorted-support + prefix-sum view, invalidated
	// by Add. Publishing it through an atomic pointer keeps read-only
	// sharing safe (engine-cached distributions are sampled concurrently);
	// concurrent builds are idempotent, so the last write winning is fine.
	cdf atomic.Pointer[distCDF[T]]
}

// distCDF caches the support in canonical sorted order together with the
// left-to-right prefix sums of the weights. Sorted order is by the
// fmt-formatted element (plain lexicographic order for the string-kinded
// instantiations used throughout), matching the historical Sample order.
// cum[len-1] is the total mass summed in sorted order, so every consumer of
// the cache sums deterministically.
type distCDF[T comparable] struct {
	keys  []T
	reprs []string
	ps    []float64 // raw weights aligned with keys (struct-of-arrays view)
	cum   []float64
}

// view returns the current CDF cache, building it on first use after a
// mutation.
func (d *Dist[T]) view() *distCDF[T] {
	if c := d.cdf.Load(); c != nil {
		return c
	}
	c := buildCDF(d.w)
	d.cdf.Store(c)
	return c
}

func buildCDF[T comparable](w map[T]float64) *distCDF[T] {
	c := &distCDF[T]{keys: make([]T, 0, len(w))}
	for x := range w {
		c.keys = append(c.keys, x)
	}
	if len(c.keys) > 1 {
		if ks, ok := any(c.keys).([]string); ok {
			sort.Strings(ks)
			c.reprs = ks
		} else {
			c.reprs = make([]string, len(c.keys))
			for i, k := range c.keys {
				c.reprs[i] = reprOf(k)
			}
			sort.Sort(&byRepr[T]{reprs: c.reprs, keys: c.keys})
		}
	} else if ks, ok := any(c.keys).([]string); ok {
		c.reprs = ks
	}
	c.ps = make([]float64, len(c.keys))
	c.cum = make([]float64, len(c.keys))
	acc := 0.0
	for i, k := range c.keys {
		p := w[k]
		c.ps[i] = p
		acc += p
		c.cum[i] = acc
	}
	return c
}

// reprOf returns the canonical sort representation of an element: the
// fmt-formatted value, with a reflection fast path for string-kinded types
// (psioa.Action, psioa.State, …) that avoids fmt's allocation.
func reprOf[T comparable](x T) string {
	if s, ok := any(x).(string); ok {
		return s
	}
	if rv := reflect.ValueOf(x); rv.Kind() == reflect.String {
		return rv.String()
	}
	return fmt.Sprint(x)
}

// byRepr sorts keys and reprs in lockstep by repr.
type byRepr[T comparable] struct {
	reprs []string
	keys  []T
}

func (b *byRepr[T]) Len() int           { return len(b.keys) }
func (b *byRepr[T]) Less(i, j int) bool { return b.reprs[i] < b.reprs[j] }
func (b *byRepr[T]) Swap(i, j int) {
	b.reprs[i], b.reprs[j] = b.reprs[j], b.reprs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// repr returns the sort representation of key i, tolerating the missing
// reprs slice of single-element string caches.
func (c *distCDF[T]) repr(i int) string {
	if c.reprs != nil {
		return c.reprs[i]
	}
	return reprOf(c.keys[i])
}

// New returns an empty (zero-mass) distribution.
func New[T comparable]() *Dist[T] {
	return &Dist[T]{w: make(map[T]float64)}
}

// Dirac returns δ_x, the Dirac probability measure at x (Section 2.1).
func Dirac[T comparable](x T) *Dist[T] {
	d := New[T]()
	d.w[x] = 1
	return d
}

// FromMap builds a distribution from an explicit weight map. Weights must be
// non-negative and sum to at most 1+Eps. Zero weights are dropped so that
// Support is exactly the set of positive-weight elements.
func FromMap[T comparable](w map[T]float64) (*Dist[T], error) {
	d := New[T]()
	total := 0.0
	for x, p := range w {
		if p < 0 {
			return nil, fmt.Errorf("measure: negative weight %v for %v", p, x)
		}
		if p == 0 {
			continue
		}
		d.w[x] = p
		total += p
	}
	if total > 1+Eps {
		return nil, fmt.Errorf("measure: total mass %v exceeds 1", total)
	}
	return d, nil
}

// MustFromMap is FromMap that panics on invalid input; for literals in tests
// and in-package constructions whose validity is guaranteed by construction.
func MustFromMap[T comparable](w map[T]float64) *Dist[T] {
	d, err := FromMap(w)
	if err != nil {
		panic(err)
	}
	return d
}

// Uniform returns the uniform probability measure on the given elements.
// Duplicate elements accumulate weight. Panics if xs is empty.
func Uniform[T comparable](xs []T) *Dist[T] {
	if len(xs) == 0 {
		panic("measure: Uniform over empty support")
	}
	d := New[T]()
	p := 1.0 / float64(len(xs))
	for _, x := range xs {
		d.w[x] += p
	}
	return d
}

// P returns the probability mass assigned to x (0 if absent).
func (d *Dist[T]) P(x T) float64 { return d.w[x] }

// Add increases the mass at x by p. It is the building block for measure
// construction; callers are responsible for keeping the total ≤ 1 (validated
// by Total/IsProb when it matters). Negative p panics.
func (d *Dist[T]) Add(x T, p float64) {
	if p < 0 {
		panic(fmt.Sprintf("measure: Add negative mass %v", p))
	}
	if p == 0 {
		return
	}
	d.w[x] += p
	if d.cdf.Load() != nil {
		d.cdf.Store(nil)
	}
}

// Total returns the total mass Σ_x d(x), summed in the cache's canonical
// sorted order so the float result is independent of map iteration order
// (totals feed reports that must be byte-identical run to run).
func (d *Dist[T]) Total() float64 {
	c := d.view()
	if n := len(c.cum); n > 0 {
		return c.cum[n-1]
	}
	return 0
}

// IsProb reports whether d is a probability measure (total mass 1 ± Eps).
func (d *Dist[T]) IsProb() bool { return math.Abs(d.Total()-1) <= Eps }

// IsSubProb reports whether d is a sub-probability measure (total ≤ 1+Eps).
func (d *Dist[T]) IsSubProb() bool { return d.Total() <= 1+Eps }

// Deficit returns 1 − Total(), the halting probability when d is a
// scheduler's choice sub-distribution (Def 3.1). Clamped at 0.
func (d *Dist[T]) Deficit() float64 {
	def := 1 - d.Total()
	if def < 0 {
		return 0
	}
	return def
}

// Len returns the size of the support.
func (d *Dist[T]) Len() int { return len(d.w) }

// Support returns supp(d): the elements with positive mass, in map order.
func (d *Dist[T]) Support() []T {
	s := make([]T, 0, len(d.w))
	for x := range d.w {
		s = append(s, x)
	}
	return s
}

// SortedSupport returns supp(d) in canonical sorted order (the Sample
// order). The slice is shared with the distribution's internal cache and
// MUST NOT be modified by the caller; it stays valid until the next
// mutation. Use Support for an owned copy.
func (d *Dist[T]) SortedSupport() []T { return d.view().keys }

// SupportAndProbs returns the sorted support together with the aligned raw
// weights — the struct-of-arrays view the measure kernels iterate instead
// of probing the weight map per element (ps[i] == P(keys[i]) bit for bit).
// Both slices are shared with the internal cache and MUST NOT be modified;
// they stay valid until the next mutation.
func (d *Dist[T]) SupportAndProbs() (keys []T, ps []float64) {
	c := d.view()
	return c.keys, c.ps
}

// ForEach calls f for every (element, mass) pair with positive mass.
func (d *Dist[T]) ForEach(f func(x T, p float64)) {
	for x, p := range d.w {
		if p > 0 {
			f(x, p)
		}
	}
}

// Copy returns an independent copy of d.
func (d *Dist[T]) Copy() *Dist[T] {
	c := New[T]()
	for x, p := range d.w {
		c.w[x] = p
	}
	return c
}

// Scale returns the measure x ↦ c·d(x). c must be in [0, 1].
func (d *Dist[T]) Scale(c float64) *Dist[T] {
	if c < 0 || c > 1+Eps {
		panic(fmt.Sprintf("measure: Scale factor %v out of [0,1]", c))
	}
	s := New[T]()
	for x, p := range d.w {
		s.w[x] = c * p
	}
	return s
}

// Map returns the image measure of d under f: (f∗d)(y) = Σ_{f(x)=y} d(x).
// This is exactly the f-dist construction of Def 3.5 when d is an execution
// measure and f an insight function.
func Map[T, U comparable](d *Dist[T], f func(T) U) *Dist[U] {
	img := New[U]()
	for x, p := range d.w {
		img.w[f(x)] += p
	}
	return img
}

// Product returns the product measure d1 ⊗ d2 over pairs, represented via
// the combining function pair (typically a tuple codec):
// (d1⊗d2)(pair(x,y)) = d1(x)·d2(y) (Section 2.1).
func Product[T, U, V comparable](d1 *Dist[T], d2 *Dist[U], pair func(T, U) V) *Dist[V] {
	prod := New[V]()
	for x, px := range d1.w {
		for y, py := range d2.w {
			prod.w[pair(x, y)] += px * py
		}
	}
	return prod
}

// ProductN returns the n-fold product measure of probability measures over
// string-encoded components, combined with join (typically codec.EncodeTuple
// over the component list). Each factor contributes independently.
func ProductN(factors []*Dist[string], join func([]string) string) *Dist[string] {
	acc := New[string]()
	var rec func(i int, parts []string, p float64)
	rec = func(i int, parts []string, p float64) {
		if i == len(factors) {
			acc.w[join(parts)] += p
			return
		}
		for x, px := range factors[i].w {
			rec(i+1, append(parts, x), p*px)
		}
	}
	rec(0, make([]string, 0, len(factors)), 1)
	return acc
}

// Mixture returns the convex combination Σ wᵢ·dᵢ. Weights must be
// non-negative and sum to at most 1+Eps (sub-convex combinations yield
// sub-probability measures, matching the scheduler convexity of Def 3.1).
func Mixture[T comparable](ws []float64, ds []*Dist[T]) (*Dist[T], error) {
	if len(ws) != len(ds) {
		return nil, fmt.Errorf("measure: %d weights for %d measures", len(ws), len(ds))
	}
	total := 0.0
	out := New[T]()
	for i, w := range ws {
		if w < 0 {
			return nil, fmt.Errorf("measure: negative weight %v", w)
		}
		total += w
		ds[i].ForEach(func(x T, p float64) { out.Add(x, w*p) })
	}
	if total > 1+Eps {
		return nil, fmt.Errorf("measure: mixture weights sum to %v > 1", total)
	}
	return out, nil
}

// Condition returns the measure restricted to elements satisfying pred,
// renormalised to a probability measure. It errors when the predicate has
// measure zero.
func Condition[T comparable](d *Dist[T], pred func(T) bool) (*Dist[T], error) {
	mass := 0.0
	d.ForEach(func(x T, p float64) {
		if pred(x) {
			mass += p
		}
	})
	if mass <= Eps {
		return nil, fmt.Errorf("measure: conditioning on a null event")
	}
	out := New[T]()
	d.ForEach(func(x T, p float64) {
		if pred(x) {
			out.Add(x, p/mass)
		}
	})
	return out, nil
}

// Equal reports whether d and e assign the same mass (± Eps) to every
// element of the union of their supports.
func Equal[T comparable](d, e *Dist[T]) bool {
	for x, p := range d.w {
		if math.Abs(p-e.w[x]) > Eps {
			return false
		}
	}
	for x, p := range e.w {
		if math.Abs(p-d.w[x]) > Eps {
			return false
		}
	}
	return true
}

// BalancedSup computes the distance of Def 3.6:
//
//	sup_{I ⊆ supp} | Σ_{i∈I} (e(ζ_i) − d(ζ_i)) |
//
// over all countable families of elements. For finite supports this sup is
// attained either by the set of elements where e > d or by the set where
// e < d, so it equals max(Σ positive differences, Σ negative differences).
// Two schedulers σ, σ′ are S^{≤ε}_{E,f}-balanced iff
// BalancedSup(f-dist(σ), f-dist(σ′)) ≤ ε.
func BalancedSup[T comparable](d, e *Dist[T]) float64 {
	var pos, neg []float64
	forEachDiff(d, e, func(dw, ew float64) {
		diff := ew - dw
		if diff > 0 {
			pos = append(pos, diff)
		} else if diff < 0 {
			neg = append(neg, -diff)
		}
	})
	return math.Max(sumSorted(pos), sumSorted(neg))
}

// forEachDiff visits the weight pairs (d(x), e(x)) over the union of the
// two supports by merging the cached sorted orders — no union set is
// materialised and the visit order is deterministic. Elements whose sort
// representations collide without being equal are visited singly.
func forEachDiff[T comparable](d, e *Dist[T], visit func(dw, ew float64)) {
	dc, ec := d.view(), e.view()
	i, j := 0, 0
	for i < len(dc.keys) || j < len(ec.keys) {
		switch {
		case j >= len(ec.keys):
			visit(d.w[dc.keys[i]], 0)
			i++
		case i >= len(dc.keys):
			visit(0, e.w[ec.keys[j]])
			j++
		default:
			ri, rj := dc.repr(i), ec.repr(j)
			switch {
			case ri < rj:
				visit(d.w[dc.keys[i]], 0)
				i++
			case rj < ri:
				visit(0, e.w[ec.keys[j]])
				j++
			case dc.keys[i] == ec.keys[j]:
				visit(d.w[dc.keys[i]], e.w[ec.keys[j]])
				i++
				j++
			default:
				visit(d.w[dc.keys[i]], 0)
				i++
			}
		}
	}
}

// sumSorted adds the terms in sorted order, so the result depends only on
// the multiset of terms and never on map-iteration order. Distances are part
// of reports that must be byte-identical between sequential and parallel
// runs (internal/engine), and float addition is not associative.
func sumSorted(terms []float64) float64 {
	sort.Float64s(terms)
	s := 0.0
	for _, t := range terms {
		s += t
	}
	return s
}

// TVDistance returns the total variation distance
// ½ Σ_x |d(x) − e(x)|. For probability measures TVDistance == BalancedSup;
// for sub-probability measures they can differ, which is why the framework
// uses BalancedSup (the paper's Def 3.6) for the implementation relation.
func TVDistance[T comparable](d, e *Dist[T]) float64 {
	var terms []float64
	forEachDiff(d, e, func(dw, ew float64) {
		if diff := math.Abs(dw - ew); diff > 0 {
			terms = append(terms, diff)
		}
	})
	return sumSorted(terms) / 2
}

// Sample draws one element from d using u ∈ [0,1). If u lands in the halting
// deficit of a sub-probability measure, ok is false. Sampling is
// deterministic: elements are laid out in the cache's canonical sorted
// order (lexicographic for the string instantiations used throughout) and
// the draw is a binary search over the cached prefix sums, so repeated
// draws from one distribution cost O(log n) each instead of an O(n log n)
// sort per draw.
func (d *Dist[T]) Sample(u float64) (x T, ok bool) {
	if i, ok := d.SampleIndex(u); ok {
		return d.view().keys[i], true
	}
	var zero T
	return zero, false
}

// SampleIndex is Sample returning the position of the drawn element in
// the sorted support (SortedSupport, SupportAndProbs) instead of the
// element: the same binary search over the same prefix sums, so for every
// u both draw the same element. Kernels that keep per-element data
// aligned with the sorted support index it directly.
func (d *Dist[T]) SampleIndex(u float64) (int, bool) {
	cum := d.CDF()
	i := SearchCDF(cum, u)
	return i, i < len(cum)
}

// CDF returns the prefix sums of the masses over the sorted support, the
// ones Sample searches: cum[i] is the mass of the first i+1 elements of
// SortedSupport. The slice is shared with the internal cache and MUST NOT
// be modified; it stays valid until the next mutation.
func (d *Dist[T]) CDF() []float64 { return d.view().cum }

// SearchCDF returns the least i with cum[i] > u, or len(cum) if there is
// none: the index u draws from a CDF (len(cum) is the halting deficit).
// Its probes are sort.Search's, in the same order, so it returns what
// sort.Search does for every input, a CDF with NaN or decreasing entries
// included, and makes no closure call per probe.
func SearchCDF(cum []float64, u float64) int {
	i, j := 0, len(cum)
	for i < j {
		h := int(uint(i+j) >> 1)
		if cum[h] > u {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// maxDraw is the largest u a sampling stream draws (rng.Stream.Float64):
// 1 − 2⁻⁵³.
const maxDraw = 1 - 0x1p-53

// SureCDF reports whether every u in [0, 1) draws index 0 from cum, so
// that a draw need not look at u. The probes on the way to index 0 are the
// same for every u (each one goes left), and each holds for all u ≤ maxDraw
// iff it holds at maxDraw, so one search decides.
func SureCDF(cum []float64) bool {
	return len(cum) > 0 && SearchCDF(cum, maxDraw) == 0
}

// String renders the distribution deterministically for diagnostics.
func (d *Dist[T]) String() string {
	c := d.view()
	s := "{"
	for i, k := range c.keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%v:%.6g", k, d.w[k])
	}
	return s + "}"
}
