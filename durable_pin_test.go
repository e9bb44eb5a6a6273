// Durable-store pins against the nine kernel-equivalence fingerprints: the
// canonical kernel renderings round-trip through the disk store across a
// reopen with their SHA-256 goldens unchanged, and a corrupted entry is
// quarantined and recomputed back to the exact golden — persistence and
// quarantine-and-recompute never alter a byte of kernel output.
package dse_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// ctx is the context of the tests' store calls.
var ctx = context.Background()

func TestDurableStoreKernelPins(t *testing.T) {
	dir := t.TempDir()
	s, err := durable.Open(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := kernelPinCases()
	for _, c := range cases {
		text, err := c.text()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(ctx, c.name, []byte(text)); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen (the restart) and verify every recovered entry still hashes to
	// its golden.
	s2, err := durable.Open(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		data, err := s2.Get(ctx, c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := pinHash(string(data)), kernelPins[c.name]; got != want {
			t.Errorf("%s: recovered entry hash %s, golden %s", c.name, got, want)
		}
	}

	// Flip one bit in every committed entry: each Get must quarantine and
	// the recompute-and-republish cycle must land back on the golden.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), "e-") {
			continue
		}
		p := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x04
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s3, err := durable.Open(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if _, err := s3.Get(ctx, c.name); err == nil {
			t.Fatalf("%s: bit-flipped entry served", c.name)
		}
		text, err := c.text() // recompute
		if err != nil {
			t.Fatal(err)
		}
		if err := s3.Put(ctx, c.name, []byte(text)); err != nil {
			t.Fatal(err)
		}
		data, err := s3.Get(ctx, c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pinHash(string(data)), kernelPins[c.name]; got != want {
			t.Errorf("%s: recomputed entry hash %s, golden %s", c.name, got, want)
		}
	}
	if st := s3.Stats(); st.Corrupt != int64(len(cases)) {
		t.Errorf("corrupt count = %d, want %d", st.Corrupt, len(cases))
	}
}
