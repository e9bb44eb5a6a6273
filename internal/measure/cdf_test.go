package measure

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestSortedSupport(t *testing.T) {
	d := New[string]()
	d.Add("b", 0.25)
	d.Add("a", 0.5)
	d.Add("c", 0.125)
	ss := d.SortedSupport()
	if !sort.StringsAreSorted(ss) || len(ss) != 3 {
		t.Fatalf("SortedSupport = %v", ss)
	}
	// The view is cached: repeated calls return the same backing slice.
	if &ss[0] != &d.SortedSupport()[0] {
		t.Error("SortedSupport rebuilt despite no mutation")
	}
}

func TestCDFInvalidatedByAdd(t *testing.T) {
	d := New[string]()
	d.Add("a", 0.5)
	d.Add("b", 0.25)
	if got := d.Total(); got != 0.75 {
		t.Fatalf("Total = %v", got)
	}
	// Mutating after the CDF is built must invalidate it: totals, sorted
	// support, and sampling all see the new point.
	d.Add("c", 0.25)
	if got := d.Total(); got != 1.0 {
		t.Errorf("Total after Add = %v, want 1", got)
	}
	if ss := d.SortedSupport(); len(ss) != 3 || ss[2] != "c" {
		t.Errorf("SortedSupport after Add = %v", ss)
	}
	if x, ok := d.Sample(0.999); !ok || x != "c" {
		t.Errorf("Sample(0.999) = %v, %v", x, ok)
	}
}

func TestSampleBoundaries(t *testing.T) {
	// Sorted order a(0.5), b(0.25), c(0.25); prefix sums 0.5, 0.75, 1.0.
	// Sample returns the first element whose cumulative mass exceeds u, so
	// boundary values select the next element — the same convention as the
	// linear scan it replaced.
	d := New[string]()
	d.Add("c", 0.25)
	d.Add("a", 0.5)
	d.Add("b", 0.25)
	cases := []struct {
		u    float64
		want string
	}{
		{0, "a"}, {0.49, "a"}, {0.5, "b"}, {0.74, "b"}, {0.75, "c"}, {0.999, "c"},
	}
	for _, c := range cases {
		got, ok := d.Sample(c.u)
		if !ok || got != c.want {
			t.Errorf("Sample(%v) = %v, %v; want %v", c.u, got, ok, c.want)
		}
	}
	// Mass beyond the total fails (sub-probability halting convention).
	sub := New[string]()
	sub.Add("x", 0.5)
	if _, ok := sub.Sample(0.75); ok {
		t.Error("Sample beyond total mass should fail")
	}
	if _, ok := sub.SampleIndex(0.75); ok {
		t.Error("SampleIndex beyond total mass should fail")
	}
}

// TestSampleIndexAgreesWithSample: SampleIndex draws the position of the
// element Sample draws, in the SupportAndProbs order.
func TestSampleIndexAgreesWithSample(t *testing.T) {
	d := New[string]()
	d.Add("c", 0.125)
	d.Add("a", 0.5)
	d.Add("b", 0.25)
	keys, _ := d.SupportAndProbs()
	for u := 0.0; u < 1; u += 1.0 / 64 {
		x, ok := d.Sample(u)
		i, iok := d.SampleIndex(u)
		if ok != iok || (ok && keys[i] != x) {
			t.Errorf("u=%v: Sample = %v,%v but SampleIndex = %v,%v", u, x, ok, i, iok)
		}
	}
}

func TestTotalSortedOrderDeterministic(t *testing.T) {
	// Two distributions with identical content built in different insertion
	// orders must report bitwise-equal totals: summation follows the sorted
	// support, never map or insertion order. The masses are deliberately
	// non-dyadic so addition order is observable in the low bits.
	masses := map[string]float64{"p": 0.1, "q": 0.2, "r": 0.3, "s": 0.15, "t": 0.25}
	fwd, rev := New[string](), New[string]()
	keys := []string{"p", "q", "r", "s", "t"}
	for _, k := range keys {
		fwd.Add(k, masses[k])
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev.Add(keys[i], masses[keys[i]])
	}
	ft, rt := fwd.Total(), rev.Total()
	if ft != rt {
		t.Errorf("insertion order leaked into Total: %v vs %v", ft, rt)
	}
	want := 0.0
	for _, k := range keys {
		// keys is already sorted; this is the specified summation order.
		want += masses[k]
	}
	if ft != want {
		t.Errorf("Total = %v, sorted-order sum = %v", ft, want)
	}
	for i := 0; i < 50; i++ {
		if fwd.Total() != ft {
			t.Fatal("Total not reproducible across calls")
		}
	}
}

func TestIntSortedSupportUsesNumericRepr(t *testing.T) {
	// Non-string kinds sort by their fmt representation — pin that so the
	// reflection fast path stays consistent with the fmt.Sprint fallback.
	d := New[int]()
	d.Add(10, 0.25)
	d.Add(2, 0.5)
	d.Add(1, 0.25)
	ss := d.SortedSupport()
	if len(ss) != 3 || ss[0] != 1 || ss[1] != 10 || ss[2] != 2 {
		t.Errorf("SortedSupport = %v, want lexicographic by repr [1 10 2]", ss)
	}
}

// cdfMass decodes one fuzz byte into a mass: its top three bits pick zero,
// NaN, 1, 1−ulp, 1+ulp or (the last three) a multiple of 1/64 below 1/2.
func cdfMass(b byte) float64 {
	switch b >> 5 {
	case 0:
		return 0
	case 1:
		return math.NaN()
	case 2:
		return 1
	case 3:
		return math.Nextafter(1, 0)
	case 4:
		return math.Nextafter(1, 2)
	}
	return float64(b&31+1) / 64
}

// FuzzCDFSearch holds SearchCDF to sort.Search over the same prefix sums,
// and SureCDF to "u = 0 and u = 1−2⁻⁵³ both draw the first element", on
// CDFs of 0–40 decoded masses (zero, NaN, 1 and its neighbours, small
// multiples of 1/64): sub-probability, over-mass, repeated prefix sums
// and NaN included. Each CDF is searched at the fuzzed u, at 0, at
// 1−2⁻⁵³ and at every prefix sum and its neighbours, directly and
// through a Dist with the same masses.
func FuzzCDFSearch(f *testing.F) {
	ref := func(cum []float64, u float64) int {
		return sort.Search(len(cum), func(i int) bool { return cum[i] > u })
	}
	f.Fuzz(func(t *testing.T, masses []byte, u float64) {
		if len(masses) > 40 {
			masses = masses[:40]
		}
		cum := make([]float64, len(masses))
		d := New[string]()
		acc := 0.0
		for i, b := range masses {
			p := cdfMass(b)
			acc += p
			cum[i] = acc
			d.Add(fmt.Sprintf("%02d", i), p)
		}
		us := []float64{u, 0, maxDraw}
		for _, c := range cum {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for _, u := range us {
			if got, want := SearchCDF(cum, u), ref(cum, u); got != want {
				t.Fatalf("SearchCDF(%v, %v) = %d, sort.Search %d", cum, u, got, want)
			}
			dc := d.CDF()
			i, ok := d.SampleIndex(u)
			if want := ref(dc, u); i != want || ok != (want < len(dc)) {
				t.Fatalf("SampleIndex(%v) over %v = %d, %v; sort.Search %d", u, dc, i, ok, want)
			}
		}
		first := func(u float64) bool { return len(cum) > 0 && ref(cum, u) == 0 }
		if got, want := SureCDF(cum), first(0) && first(maxDraw); got != want {
			t.Fatalf("SureCDF(%v) = %v, want %v", cum, got, want)
		}
	})
}
