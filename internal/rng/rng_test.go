package rng

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/64 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split(3)
	b := New(7).Split(3)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestSplitIndependent(t *testing.T) {
	parent := New(7)
	s1 := parent.Split(1)
	parent2 := New(7)
	s2 := parent2.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams collided %d/64 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean of %d uniforms = %v, want ≈0.5", n, mean)
	}
}

func TestIntN(t *testing.T) {
	s := New(5)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		v := s.IntN(4)
		if v < 0 || v >= 4 {
			t.Fatalf("IntN out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("bucket %d count %d outside [800,1200]", i, c)
		}
	}
}

func TestPerm(t *testing.T) {
	p := New(11).Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSubstreamPure(t *testing.T) {
	// Substream is a pure function of (material, index): it never consumes
	// parent state, so shard workers can derive per-sample streams in any
	// order and still agree.
	a, b := Substream(99, 7), Substream(99, 7)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Substream is not a pure function of (material, index)")
		}
	}
	same := 0
	x, y := Substream(99, 7), Substream(99, 8)
	for i := 0; i < 64; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent substreams collided %d/64 times", same)
	}
}

func TestSplitMatchesSubstream(t *testing.T) {
	// Split draws one material word from the parent, then delegates to
	// Substream — so a caller can reproduce a split stream from the
	// material alone.
	parent := New(13)
	material := New(13).Uint64()
	s1 := parent.Split(5)
	s2 := Substream(material, 5)
	for i := 0; i < 50; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("Split(i) must equal Substream(parent draw, i)")
		}
	}
}

// TestSubstreamDrawsMatchMathRand: for 1,000 (material, index) pairs, the
// first 64 Float64, Uint64 and IntN draws of Substream, and of a stream
// reseeded in place, equal those of a math/rand/v2 Rand over the same PCG
// seeds.
func TestSubstreamDrawsMatchMathRand(t *testing.T) {
	var reused Stream
	for i := uint64(0); i < 1000; i++ {
		material, index := mix(i+1)*0x9e3779b97f4a7c15, i*7919
		for kind := 0; kind < 3; kind++ {
			want := rand.New(rand.NewPCG(material^mix(index), mix(index+0x632be59bd9b4e019)))
			got := Substream(material, index)
			reused.Reseed(material, index)
			for j := 0; j < 64; j++ {
				var w, g, r uint64
				switch kind {
				case 0:
					w, g, r = math.Float64bits(want.Float64()), math.Float64bits(got.Float64()), math.Float64bits(reused.Float64())
				case 1:
					w, g, r = want.Uint64(), got.Uint64(), reused.Uint64()
				default:
					n := 1 + j*j
					w, g, r = uint64(want.IntN(n)), uint64(got.IntN(n)), uint64(reused.IntN(n))
				}
				if g != w || r != w {
					t.Fatalf("pair %d kind %d draw %d: Substream %d, reseeded %d, math/rand %d", i, kind, j, g, r, w)
				}
			}
		}
	}
}

// TestSkipAdvancesLikeFloat64: Skip consumes exactly the draw a Float64
// would, so a stream that skips stays in step with a twin that drew the
// float, at every position of the stream.
func TestSkipAdvancesLikeFloat64(t *testing.T) {
	for i := uint64(0); i < 100; i++ {
		skipped, drawn := Substream(mix(i+1), i), Substream(mix(i+1), i)
		for j := 0; j < 64; j++ {
			if j%3 == 0 {
				skipped.Skip()
				drawn.Float64()
			}
			if g, w := skipped.Uint64(), drawn.Uint64(); g != w {
				t.Fatalf("stream %d draw %d: after Skip %d, after Float64 %d", i, j, g, w)
			}
		}
	}
}
