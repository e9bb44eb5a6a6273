package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
)

// fakeBacking is an in-memory slow tier for engine.Tiered, with traffic
// counters and a scriptable failure mode.
type fakeBacking struct {
	mu      sync.Mutex
	entries map[string][]byte
	loads   int
	saves   int
	failing bool
}

func newFakeBacking() *fakeBacking {
	return &fakeBacking{entries: make(map[string][]byte)}
}

func (f *fakeBacking) Get(_ context.Context, key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	if f.failing {
		return nil, errors.New("disk on fire")
	}
	data, ok := f.entries[key]
	if !ok {
		return nil, fmt.Errorf("fake: %q: %w", key, engine.ErrNotFound)
	}
	return data, nil
}

func (f *fakeBacking) Put(_ context.Context, key string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	if f.failing {
		return errors.New("disk on fire")
	}
	f.entries[key] = append([]byte(nil), data...)
	return nil
}

// TestRawBackingWriteThroughAndFallback pins the two-tier store over the
// cache's memory view: Put writes through to the slow tier, and a memory
// miss falls through to it — promoting the entry so the next lookup is a
// memory hit.
func TestRawBackingWriteThroughAndFallback(t *testing.T) {
	ctx := context.Background()
	fb := newFakeBacking()
	s := engine.Tiered(engine.NewCache(16).Blobs(), fb)

	data := []byte(`{"kind":"check"}`)
	if err := s.Put(ctx, "job-0001", data); err != nil {
		t.Fatal(err)
	}
	if fb.saves != 1 {
		t.Fatalf("saves = %d after Put, want 1 (write-through)", fb.saves)
	}

	// A fresh cache over the same slow tier — the restart scenario: memory
	// cold, disk warm.
	s2 := engine.Tiered(engine.NewCache(16).Blobs(), fb)
	got, err := s2.Get(ctx, "job-0001")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fallback Get = %q, %v", got, err)
	}
	if fb.loads != 1 {
		t.Fatalf("loads = %d, want 1", fb.loads)
	}
	// Promoted: the second lookup is served from memory, no slow-tier I/O.
	if _, err := s2.Get(ctx, "job-0001"); err != nil {
		t.Fatal(err)
	}
	if fb.loads != 1 {
		t.Fatalf("loads = %d after promoted hit, want still 1", fb.loads)
	}
}

// TestRawBackingMissAndFailure pins degradation: a slow-tier miss is a
// plain miss, and a failing slow tier degrades durability, not
// availability — Put still serves from memory, Get still classifies
// ErrNotFound.
func TestRawBackingMissAndFailure(t *testing.T) {
	ctx := context.Background()
	fb := newFakeBacking()
	s := engine.Tiered(engine.NewCache(16).Blobs(), fb)
	if _, err := s.Get(ctx, "absent"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("slow-tier miss = %v, want ErrNotFound", err)
	}

	fb.failing = true
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put with failing slow tier = %v, want nil", err)
	}
	got, err := s.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("memory tier lost entry when slow tier failed: %q, %v", got, err)
	}
	if _, err := s.Get(ctx, "other"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("failing slow tier = %v, want ErrNotFound", err)
	}
}

// TestRawBackingNilSafe pins the nil-cache and no-backing contracts: a nil
// cache as the fast tier serves every lookup from the slow tier, and the
// memory view alone round-trips.
func TestRawBackingNilSafe(t *testing.T) {
	ctx := context.Background()
	var c *engine.Cache
	fb := newFakeBacking()
	s := engine.Tiered(c.Blobs(), fb)
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := s.Get(ctx, "k"); err != nil || string(got) != "v" {
			t.Fatalf("nil-cache fast tier Get = %q, %v", got, err)
		}
	}
	if fb.loads != 2 {
		t.Fatalf("loads = %d, want 2 (a nil cache promotes nothing)", fb.loads)
	}

	m := engine.NewCache(16).Blobs()
	if err := m.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("no-backing round-trip = %q, %v", got, err)
	}
}
