package psioa_test

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/psioa"
)

// hostile state/action labels exercising the codec escape machinery: the
// separator, the escape byte, the empty-tuple sentinel, and empty strings.
var hostileLabels = []string{"|", "\\", "||", "\\\\", "|\\|", "()", "", "q|0", "a\\x"}

func TestFragKeyRoundTripHostile(t *testing.T) {
	// Zero-length fragments, including ones whose only state is itself a
	// codec metacharacter.
	for _, s := range hostileLabels {
		f := psioa.NewFrag(psioa.State(s))
		g, err := psioa.FragFromKey(f.Key())
		if err != nil {
			t.Fatalf("FragFromKey(Key(NewFrag(%q))): %v", s, err)
		}
		if g.Key() != f.Key() || g.Len() != 0 || g.LState() != f.LState() {
			t.Errorf("zero-length round trip failed for state %q", s)
		}
	}
	// Deeper fragments mixing hostile labels in both positions.
	f := psioa.NewFrag("q|0")
	for i, s := range hostileLabels {
		f = f.Extend(psioa.Action(hostileLabels[len(hostileLabels)-1-i]), psioa.State(s))
	}
	g, err := psioa.FragFromKey(f.Key())
	if err != nil {
		t.Fatal(err)
	}
	if g.Key() != f.Key() || g.Len() != f.Len() {
		t.Error("hostile round trip failed")
	}
	for i := 0; i <= f.Len(); i++ {
		if g.StateAt(i) != f.StateAt(i) {
			t.Errorf("state %d: %q != %q", i, g.StateAt(i), f.StateAt(i))
		}
	}
	for i := 0; i < f.Len(); i++ {
		if g.ActionAt(i) != f.ActionAt(i) {
			t.Errorf("action %d: %q != %q", i, g.ActionAt(i), f.ActionAt(i))
		}
	}
}

// naivePrefix is the reference definition: f ≤ g iff f's alternating
// sequence is an initial segment of g's.
func naivePrefix(f, g *psioa.Frag) bool {
	if f.Len() > g.Len() {
		return false
	}
	for i := 0; i <= f.Len(); i++ {
		if f.StateAt(i) != g.StateAt(i) {
			return false
		}
	}
	for i := 0; i < f.Len(); i++ {
		if f.ActionAt(i) != g.ActionAt(i) {
			return false
		}
	}
	return true
}

func TestIsPrefixOfQuick(t *testing.T) {
	mk := func(start string, steps []string) *psioa.Frag {
		f := psioa.NewFrag(psioa.State(start))
		for i, s := range steps {
			f = f.Extend(psioa.Action(steps[(i+1)%len(steps)]), psioa.State(s))
		}
		return f
	}
	prop := func(start string, steps, extra, other []string) bool {
		f := mk(start, steps)
		g := f
		for i, s := range extra {
			g = g.Extend(psioa.Action(s), psioa.State(extra[(i+1)%len(extra)]))
		}
		// Extensions are always extended-by-prefix; the converse holds only
		// when nothing was added.
		if !f.IsPrefixOf(g) {
			return false
		}
		if g.IsPrefixOf(f) != (len(extra) == 0) {
			return false
		}
		// A structurally unrelated fragment must agree with the reference
		// definition, and so must a rebuilt copy of f that shares no nodes
		// with g (exercising the value-comparison path, not the
		// pointer-shortcut path).
		h := mk(start, other)
		if f.IsPrefixOf(h) != naivePrefix(f, h) {
			return false
		}
		f2, err := psioa.FragFromKey(f.Key())
		if err != nil {
			return false
		}
		return f2.IsPrefixOf(g) && g.IsPrefixOf(f2) == (len(extra) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFragParentChain(t *testing.T) {
	f := psioa.NewFrag("q0")
	if f.Parent() != nil {
		t.Error("root fragment must have nil parent")
	}
	g := f.Extend("a", "q1").Extend("b", "q2")
	if g.Parent() == nil || g.Parent().Parent() != f {
		t.Error("parent chain broken")
	}
	// Extend must share structure: the parent is the extended fragment
	// itself, not a copy.
	h := g.Extend("c", "q3")
	if h.Parent() != g {
		t.Error("Extend does not share structure with its receiver")
	}
}

func TestFragKeyIncrementalMatchesRebuilt(t *testing.T) {
	// Key computed incrementally (parent key cached first) must equal the
	// key computed from scratch on an identical rebuilt fragment.
	f := psioa.NewFrag("s|0")
	_ = f.Key() // cache the root key, forcing the incremental path below
	f = f.Extend("a\\1", "s1").Extend("a|2", "s\\2")
	inc := f.Key()
	scratch := psioa.NewFrag("s|0").Extend("a\\1", "s1").Extend("a|2", "s\\2")
	if scratch.Key() != inc {
		t.Errorf("incremental key %q != scratch key %q", inc, scratch.Key())
	}
}

// TestFragKeyConcurrentFirstUse: goroutines that key the fragments of one
// shared tree for the first time, deepest and shallowest first at once,
// all read the keys of an identical unshared tree. Under -race this is the
// check that the key cache is published safely.
func TestFragKeyConcurrentFirstUse(t *testing.T) {
	build := func() []*psioa.Frag {
		fs := []*psioa.Frag{psioa.NewFrag("q|0")}
		for i := 0; i < 64; i++ {
			l := hostileLabels[i%len(hostileLabels)]
			fs = append(fs, fs[i/2].Extend(psioa.Action(l), psioa.State(l+"s")))
		}
		return fs
	}
	ref, shared := build(), build()
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(shared))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range shared {
				j := i
				if g%2 == 1 {
					j = len(shared) - 1 - i
				}
				if got, want := shared[j].Key(), ref[j].Key(); got != want {
					errs <- fmt.Sprintf("fragment %d keyed %q, want %q", j, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestFragSize: the expansion and the sampler allocate a Frag per step;
// on 64-bit platforms it fits the 64-byte size class.
func TestFragSize(t *testing.T) {
	var f psioa.Frag
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(f) != 64 {
		t.Errorf("Frag is %d bytes, want 64", unsafe.Sizeof(f))
	}
}
