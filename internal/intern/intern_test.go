package intern

import (
	"fmt"
	"sync"
	"testing"
)

// TestTableRoundTrip pins the interner contract: dense first-touch IDs,
// Str∘ID identity, and Lookup never interning.
func TestTableRoundTrip(t *testing.T) {
	tbl := NewTable(4)
	words := []string{"q0", "q1", "q0", "a", "", "q1", "q2"}
	wantIDs := []uint32{0, 1, 0, 2, 3, 1, 4}
	for i, w := range words {
		if got := tbl.ID(w); got != wantIDs[i] {
			t.Fatalf("ID(%q) = %d, want %d", w, got, wantIDs[i])
		}
	}
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tbl.Len())
	}
	for id := uint32(0); id < uint32(tbl.Len()); id++ {
		s := tbl.Str(id)
		if got := tbl.ID(s); got != id {
			t.Errorf("ID(Str(%d)) = %d", id, got)
		}
		if got, ok := tbl.Lookup(s); !ok || got != id {
			t.Errorf("Lookup(%q) = %d,%v want %d,true", s, got, ok, id)
		}
	}
	if _, ok := tbl.Lookup("missing"); ok {
		t.Error("Lookup of an uninterned string reported ok")
	}
	if tbl.Len() != 5 {
		t.Errorf("Lookup interned: Len = %d", tbl.Len())
	}
}

// TestTableReset: a reset table is empty and issues IDs from 0 again, in
// first-touch order, however many strings it held before.
func TestTableReset(t *testing.T) {
	tbl := NewTable(0)
	for round, n := range []int{2, 40, 3} {
		for i := 0; i < n; i++ {
			w := fmt.Sprint("s", round, "-", i)
			if id, fresh := tbl.Intern(w); id != uint32(i) || !fresh {
				t.Fatalf("round %d: Intern(%q) = %d,%v want %d,true", round, w, id, fresh, i)
			}
		}
		tbl.Reset()
		if tbl.Len() != 0 {
			t.Fatalf("round %d: Len after Reset = %d", round, tbl.Len())
		}
		if _, ok := tbl.Lookup(fmt.Sprint("s", round, "-0")); ok {
			t.Fatalf("round %d: Lookup found a string interned before Reset", round)
		}
	}
}

// TestTableFresh pins the freshness bit Compose's duplicate-ID check uses.
func TestTableFresh(t *testing.T) {
	tbl := NewTable(0)
	if _, fresh := tbl.Intern("x"); !fresh {
		t.Error("first Intern not fresh")
	}
	if _, fresh := tbl.Intern("x"); fresh {
		t.Error("second Intern fresh")
	}
}

func TestRMBasic(t *testing.T) {
	m := NewRM[string, int](0)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map Get ok")
	}
	for i := 0; i < 1000; i++ {
		m.Set(fmt.Sprintf("k%d", i), i)
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", m.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := m.Get(fmt.Sprintf("k%d", i))
		if !ok || v != i {
			t.Fatalf("Get(k%d) = %d,%v", i, v, ok)
		}
	}
	m.Set("k5", -5)
	if v, _ := m.Get("k5"); v != -5 {
		t.Errorf("overwrite lost: %d", v)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Errorf("Len after Reset = %d", m.Len())
	}
}

// TestRMSnapshotPromotion checks that sustained inserts migrate keys into
// the lock-free snapshot rather than accumulating in the overlay.
func TestRMSnapshotPromotion(t *testing.T) {
	m := NewRM[int, int](0)
	for i := 0; i < 10000; i++ {
		m.Set(i, i)
	}
	snap := *m.snap.Load()
	if len(snap) < 8000 {
		t.Errorf("snapshot holds %d of 10000 keys; promotion too lazy", len(snap))
	}
	// Reads served from the overlay must eventually force a promotion too:
	// the trigger is scaled to the table size (so merges stay amortized
	// against locked reads), so drive a couple of table-sizes of reads.
	m.Set(10000, 10000)
	for i := 0; i < 2*m.Len()+rmDirtyHitPromote+1; i++ {
		m.Get(10000)
	}
	if _, ok := (*m.snap.Load())[10000]; !ok {
		t.Error("hot overlay key was never promoted to the snapshot")
	}
}

// TestRMCap pins the wholesale-drop bound of the memo caches RM replaces.
func TestRMCap(t *testing.T) {
	m := NewRM[int, int](64)
	var resets int
	for i := 0; i < 200; i++ {
		if m.Set(i, i) {
			resets++
		}
	}
	if resets == 0 {
		t.Error("no reset over 200 inserts with cap 64")
	}
	if n := m.Len(); n > 64 {
		t.Errorf("Len = %d exceeds cap", n)
	}
	// Overwriting a resident key at the bound must not drop the table.
	m.Reset()
	for i := 0; i < 64; i++ {
		m.Set(i, i)
	}
	if m.Set(3, 33) {
		t.Error("overwrite of a resident key reported a reset")
	}
	if v, ok := m.Get(3); !ok || v != 33 {
		t.Errorf("Get(3) = %d,%v after overwrite", v, ok)
	}
}

// TestRMConcurrent drives mixed readers/writers; run under -race this is
// the soundness check for the lock-free snapshot path.
func TestRMConcurrent(t *testing.T) {
	m := NewRM[int, int](0)
	const writers, readers, n = 4, 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m.Set(i, i)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if v, ok := m.Get(i); ok && v != i {
					t.Errorf("Get(%d) = %d", i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v after quiesce", i, v, ok)
		}
	}
}
