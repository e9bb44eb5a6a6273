package engine_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// The cases every store tier shares (misses, verbatim round-trips, tiering)
// are in cmd/dsed's TestStoreConformance, and Tiered over a counting fake
// slow tier is in tiered_test.go; these pin what only the cache's memory
// view does.

// TestRawStoreRoundTrip pins the memory view's accounting: its entries
// live in the same striped LRU as the typed memos and are counted by the
// shard hit/miss counters, so store traffic stays visible in
// Cache.ShardStats.
func TestRawStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := engine.NewCache(16)
	b := c.Blobs()
	if _, err := b.Get(ctx, "job-absent"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Get on empty cache: err=%v, want ErrNotFound", err)
	}
	data := []byte(`{"kind":"check"}`)
	if err := b.Put(ctx, "job-0001", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := b.Get(ctx, "job-0001"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get = %q, %v; want %q", got, err, data)
		}
	}
	hits, misses, _, _ := c.Totals()
	if hits < 2 || misses < 1 || c.Len() != 1 {
		t.Fatalf("raw traffic not counted: hits=%d misses=%d len=%d", hits, misses, c.Len())
	}
}

// TestRawStoreNilCache pins the nil-receiver contract: a nil cache's view
// misses every Get and drops every Put.
func TestRawStoreNilCache(t *testing.T) {
	ctx := context.Background()
	var c *engine.Cache
	if err := c.Blobs().Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Blobs().Get(ctx, "k"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("nil cache Get: err=%v, want ErrNotFound", err)
	}
}

// TestRawStoreNamespaced pins that store entries cannot collide with typed
// memo entries sharing the same key string.
func TestRawStoreNamespaced(t *testing.T) {
	ctx := context.Background()
	c := engine.NewCache(16)
	c.Put("job-0002", "typed")
	if err := c.Blobs().Put(ctx, "job-0002", []byte("raw")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get("job-0002")
	if !ok || v != "typed" {
		t.Fatalf("typed entry clobbered by store put: %v %v", v, ok)
	}
	got, err := c.Blobs().Get(ctx, "job-0002")
	if err != nil || string(got) != "raw" {
		t.Fatalf("store entry: %q %v", got, err)
	}
}

// TestResultCodec pins the one publication and decode rule of stored
// results: run reports are stripped, partial simulate results are never
// stored, and only a result of the job's kind decodes.
func TestResultCodec(t *testing.T) {
	res := &engine.Result{Kind: engine.KindSimulate, Simulate: &engine.SimulateResult{Exact: true, TotalMass: 1}, Report: &obs.RunReport{}}
	data, ok := engine.EncodeResult(res)
	if !ok || bytes.Contains(data, []byte("run_report")) {
		t.Fatalf("EncodeResult = %s, %v; want a stored result without its run report", data, ok)
	}
	if got := engine.DecodeResult(data, engine.KindSimulate); got == nil || got.Simulate == nil || got.Report != nil {
		t.Fatalf("DecodeResult = %+v", got)
	}
	if got := engine.DecodeResult(data, engine.KindCheck); got != nil {
		t.Fatalf("simulate result decoded as a check: %+v", got)
	}
	for _, body := range []string{`{}`, `null`, `[]`, `not json`} {
		if got := engine.DecodeResult([]byte(body), engine.KindSimulate); got != nil {
			t.Errorf("DecodeResult(%s) = %+v, want nil", body, got)
		}
	}
	partial := &engine.Result{Kind: engine.KindSimulate, Simulate: &engine.SimulateResult{Partial: true}}
	for _, r := range []*engine.Result{nil, partial} {
		if data, ok := engine.EncodeResult(r); ok {
			t.Errorf("EncodeResult(%+v) stored %s", r, data)
		}
	}
}
