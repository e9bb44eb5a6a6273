package durable_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// ctx is the context of the tests' store calls.
var ctx = context.Background()

func openStore(t *testing.T, dir string, opts durable.StoreOptions) *durable.DiskStore {
	t.Helper()
	s, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles lists committed entry files (e-*) under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "e-") {
			out = append(out, de.Name())
		}
	}
	return out
}

func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		out = append(out, de.Name())
	}
	return out
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{})
	payload := []byte(`{"kind":"check","check":{"holds":true}}`)
	if err := s.Put(ctx, "job-0001", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round-trip mismatch: %q != %q", got, payload)
	}
	if _, err := s.Get(ctx, "job-absent"); !errors.Is(err, durable.ErrNotFound) {
		t.Fatalf("absent key = %v, want ErrNotFound", err)
	}
	// Overwrite is atomic and keeps a single entry.
	if err := s.Put(ctx, "job-0001", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(ctx, "job-0001")
	if err != nil || string(got) != "v2" {
		t.Fatalf("after overwrite: %q, %v", got, err)
	}
	if n := len(entryFiles(t, dir)); n != 1 {
		t.Fatalf("%d entry files after overwrite, want 1", n)
	}
}

func TestDiskStoreReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{})
	if err := s.Put(ctx, "k", []byte("survives restarts")); err != nil {
		t.Fatal(err)
	}
	// A second open over the same directory — a restarted process — serves
	// the same bytes.
	s2 := openStore(t, dir, durable.StoreOptions{})
	got, err := s2.Get(ctx, "k")
	if err != nil || string(got) != "survives restarts" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
	if s2.Stats().Entries != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Stats().Entries)
	}
}

// TestDiskStoreLRUDeterministic pins eviction determinism: the same
// operation sequence over two stores (including one rebuilt by reopening)
// evicts the same keys.
func TestDiskStoreLRUDeterministic(t *testing.T) {
	run := func(dir string, reopen bool) []string {
		s := openStore(t, dir, durable.StoreOptions{MaxEntries: 3})
		for _, k := range []string{"a", "b", "c"} {
			if err := s.Put(ctx, k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if reopen {
			s = openStore(t, dir, durable.StoreOptions{MaxEntries: 3})
		}
		s.Get(ctx, "a")              // a most recent
		s.Put(ctx, "d", []byte("d")) // evicts b (LRU)
		s.Put(ctx, "e", []byte("e")) // evicts c
		var live []string
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			if _, err := s.Get(ctx, k); err == nil {
				live = append(live, k)
			}
		}
		return live
	}
	first := run(t.TempDir(), false)
	second := run(t.TempDir(), true)
	want := []string{"a", "d", "e"}
	for i, w := range want {
		if first[i] != w || second[i] != w {
			t.Fatalf("eviction diverged: fresh=%v reopened=%v want %v", first, second, want)
		}
	}
}

func TestDiskStoreTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{})
	if err := s.Put(ctx, "k", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	name := entryFiles(t, dir)[0]
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	// Same handle: the length check catches it on Get.
	if _, err := s.Get(ctx, "k"); !errors.Is(err, durable.ErrCorrupt) || !errors.Is(err, durable.ErrNotFound) {
		t.Fatalf("truncated Get = %v, want ErrCorrupt (matching ErrNotFound)", err)
	}
	if got := quarantined(t, dir); len(got) != 1 {
		t.Fatalf("quarantine holds %v, want 1 file", got)
	}
	if len(entryFiles(t, dir)) != 0 {
		t.Fatal("truncated entry left in place")
	}
	// Recompute-and-republish restores service byte-identically.
	if err := s.Put(ctx, "k", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "k")
	if err != nil || string(got) != "0123456789abcdef" {
		t.Fatalf("recomputed Get = %q, %v", got, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want corrupt=1 quarantined=1", st)
	}
}

func TestDiskStoreBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{})
	if err := s.Put(ctx, "k", []byte("payload under checksum")); err != nil {
		t.Fatal(err)
	}
	name := entryFiles(t, dir)[0]
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // flip a payload bit; length unchanged
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh open accepts the header (length matches) — the flip is caught
	// by the checksum at Get, exactly the silent-bit-rot scenario.
	s2 := openStore(t, dir, durable.StoreOptions{})
	if _, err := s2.Get(ctx, "k"); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("bit-flipped Get = %v, want ErrCorrupt", err)
	}
	if got := quarantined(t, dir); len(got) != 1 {
		t.Fatalf("quarantine holds %v, want 1 file", got)
	}
	if _, err := s2.Get(ctx, "k"); !errors.Is(err, durable.ErrNotFound) || errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("second Get = %v, want plain ErrNotFound (already quarantined)", err)
	}
}

func TestDiskStoreTornTempQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{})
	if err := s.Put(ctx, "good", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// A crash between CreateTemp and rename leaves a torn temp file.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-12345"), []byte(`{"v":1,"key":"torn"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a torn committed-looking entry: header cut mid-JSON.
	if err := os.WriteFile(filepath.Join(dir, "e-"+strings.Repeat("ab", 32)), []byte(`{"v":1,"key":"x"`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, durable.StoreOptions{})
	if got, err := s2.Get(ctx, "good"); err != nil || string(got) != "committed" {
		t.Fatalf("good entry after recovery = %q, %v", got, err)
	}
	st := s2.Stats()
	if st.TornTemps != 1 {
		t.Errorf("TornTemps = %d, want 1", st.TornTemps)
	}
	if st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1 (torn committed entry)", st.Corrupt)
	}
	if st.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2", st.Quarantined)
	}
	if s2.Stats().Entries != 1 {
		t.Errorf("Len = %d, want 1", s2.Stats().Entries)
	}
}

func TestDiskStoreMaxBytes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.StoreOptions{MaxEntries: 100, MaxBytes: 300})
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := s.Put(ctx, k, bytes.Repeat([]byte(k), 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 300 {
		t.Fatalf("store holds %d bytes, bound 300", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under the byte bound")
	}
	// The most recent entry survives.
	if _, err := s.Get(ctx, "d"); err != nil {
		t.Fatalf("most recent entry evicted: %v", err)
	}
}
