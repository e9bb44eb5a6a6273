package psioa_test

import (
	"testing"
	"testing/quick"

	"repro/internal/psioa"
	"repro/internal/testaut"
)

func TestFragBasics(t *testing.T) {
	f := psioa.NewFrag("q0")
	if f.Len() != 0 || f.FState() != "q0" || f.LState() != "q0" {
		t.Error("zero fragment wrong")
	}
	g := f.Extend("a", "q1").Extend("b", "q2")
	if g.Len() != 2 || g.LState() != "q2" || g.FState() != "q0" {
		t.Error("Extend wrong")
	}
	if g.StateAt(1) != "q1" || g.ActionAt(0) != "a" {
		t.Error("indexing wrong")
	}
	// Immutability.
	if f.Len() != 0 {
		t.Error("Extend mutated the original")
	}
}

func TestFromAlternating(t *testing.T) {
	f, err := psioa.FromAlternating([]psioa.State{"a", "b"}, []psioa.Action{"x"})
	if err != nil || f.Len() != 1 {
		t.Errorf("FromAlternating: %v %v", f, err)
	}
	if _, err := psioa.FromAlternating([]psioa.State{"a"}, []psioa.Action{"x"}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestConcat(t *testing.T) {
	f := psioa.NewFrag("q0").Extend("a", "q1")
	g := psioa.NewFrag("q1").Extend("b", "q2")
	h, err := f.Concat(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 || h.LState() != "q2" {
		t.Errorf("Concat = %v", h)
	}
	// Undefined when states mismatch (Def 2.2).
	bad := psioa.NewFrag("zzz")
	if _, err := f.Concat(bad); err == nil {
		t.Error("expected concat mismatch error")
	}
}

func TestPrefix(t *testing.T) {
	f := psioa.NewFrag("q0").Extend("a", "q1")
	g := f.Extend("b", "q2")
	if !f.IsPrefixOf(g) || !f.IsProperPrefixOf(g) {
		t.Error("prefix detection failed")
	}
	if g.IsPrefixOf(f) {
		t.Error("longer fragment cannot be prefix")
	}
	if !f.IsPrefixOf(f) || f.IsProperPrefixOf(f) {
		t.Error("reflexivity wrong")
	}
	other := psioa.NewFrag("q0").Extend("z", "q1").Extend("b", "q2")
	if f.IsPrefixOf(other) {
		t.Error("differing action accepted as prefix")
	}
}

func TestFragKeyRoundTrip(t *testing.T) {
	f := psioa.NewFrag("q|0").Extend("a\\x", "q1").Extend("b", "q2")
	g, err := psioa.FragFromKey(f.Key())
	if err != nil {
		t.Fatal(err)
	}
	if g.Key() != f.Key() || g.Len() != f.Len() || g.LState() != f.LState() {
		t.Error("Key round trip failed")
	}
	if _, err := psioa.FragFromKey("bad\\"); err == nil {
		t.Error("expected decode error")
	}
}

func TestFragKeyInjectiveQuick(t *testing.T) {
	prop := func(states1, states2 []string) bool {
		mk := func(ss []string) *psioa.Frag {
			f := psioa.NewFrag("s")
			for _, s := range ss {
				f = f.Extend("a", psioa.State(s))
			}
			return f
		}
		f1, f2 := mk(states1), mk(states2)
		eq := len(states1) == len(states2)
		if eq {
			for i := range states1 {
				if states1[i] != states2[i] {
					eq = false
					break
				}
			}
		}
		return (f1.Key() == f2.Key()) == eq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrace(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	// flip is internal, heads is output (external).
	f := psioa.NewFrag("q0").Extend("flip_c", "h").Extend("heads_c", "done")
	tr := f.Trace(c)
	if len(tr) != 1 || tr[0] != "heads_c" {
		t.Errorf("Trace = %v", tr)
	}
	if !f.IsExecOf(c) {
		t.Error("valid execution rejected")
	}
	bad := psioa.NewFrag("q0").Extend("flip_c", "done")
	if bad.IsExecOf(c) {
		t.Error("invalid step accepted (done not in supp(flip))")
	}
	bad2 := psioa.NewFrag("q0").Extend("heads_c", "h")
	if bad2.IsExecOf(c) {
		t.Error("disabled action accepted")
	}
}

func TestTraceKeyDistinguishes(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	fh := psioa.NewFrag("q0").Extend("flip_c", "h").Extend("heads_c", "done")
	ft := psioa.NewFrag("q0").Extend("flip_c", "t").Extend("tails_c", "done")
	if fh.TraceKey(c) == ft.TraceKey(c) {
		t.Error("different traces share a key")
	}
	// Internal-only prefixes share the empty trace.
	f0 := psioa.NewFrag("q0")
	f1 := psioa.NewFrag("q0").Extend("flip_c", "h")
	if f0.TraceKey(c) != f1.TraceKey(c) {
		t.Error("internal action leaked into trace")
	}
}

func TestFragString(t *testing.T) {
	f := psioa.NewFrag("a").Extend("x", "b")
	if f.String() != "a --x--> b" {
		t.Errorf("String = %q", f.String())
	}
}

func TestExploreTruncation(t *testing.T) {
	w := testaut.RandomWalk("w", 50, 0.5)
	ex, err := psioa.Explore(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Truncated {
		t.Error("expected truncation")
	}
	full, err := psioa.Explore(w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Error("unexpected truncation")
	}
	if len(full.States) != 52 {
		t.Errorf("reachable = %d, want 52", len(full.States))
	}
}

func TestSortedStates(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	ex, _ := psioa.Explore(c, 100)
	ss := ex.SortedStates()
	for i := 1; i < len(ss); i++ {
		if ss[i-1] >= ss[i] {
			t.Fatal("SortedStates not sorted")
		}
	}
}

func TestReachable(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	if ok, _ := psioa.Reachable(c, "done", 100); !ok {
		t.Error("done should be reachable")
	}
	if ok, _ := psioa.Reachable(c, "ghost", 100); ok {
		t.Error("ghost should not be reachable")
	}
}

func TestStepsAndEnabled(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	if !psioa.Enabled(c, "q0", "flip_c") || psioa.Enabled(c, "q0", "heads_c") {
		t.Error("Enabled wrong")
	}
	steps := psioa.Steps(c, "q0", "flip_c")
	if len(steps) != 2 {
		t.Errorf("Steps = %v", steps)
	}
}
