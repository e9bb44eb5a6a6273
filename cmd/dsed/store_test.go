package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/resilience"
)

// storeTier is one engine.Blobs implementation under the conformance test.
// open builds a fresh incarnation of it — as a restart would — over the
// disk directory dir, which is "" for tiers without a disk.
type storeTier struct {
	name string
	disk bool
	open func(t *testing.T, dir string) engine.Blobs
}

func openDisk(t *testing.T, dir string) *durable.DiskStore {
	t.Helper()
	ds, err := durable.Open(dir, durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// storeTiers are the three implementations of engine.Blobs and the tiered
// stack dsed builds from them: the remote view talks to a dsed handler
// wired like `dsed -store-dir`.
var storeTiers = []storeTier{
	{"memory", false, func(t *testing.T, _ string) engine.Blobs {
		return engine.NewCache(16).Blobs()
	}},
	{"disk", true, func(t *testing.T, dir string) engine.Blobs {
		return openDisk(t, dir)
	}},
	{"tiered", true, func(t *testing.T, dir string) engine.Blobs {
		return engine.Tiered(engine.NewCache(16).Blobs(), openDisk(t, dir))
	}},
	{"remote", true, func(t *testing.T, dir string) engine.Blobs {
		s := &server{
			runner:  newRunner(1, 16),
			store:   engine.NewStore(),
			timeout: 5 * time.Second,
			ctx:     context.Background(),
		}
		s.runner.Results = engine.Tiered(s.runner.Results, openDisk(t, dir))
		ts := httptest.NewServer(s.handler())
		t.Cleanup(ts.Close)
		return cluster.NewRemoteBackend("w0", ts.URL, resilience.Backoff{}).Store()
	}},
}

// TestStoreConformance runs every result store tier through the one
// contract of engine.Blobs: misses match engine.ErrNotFound, bytes
// round-trip verbatim whatever the caller later does with its buffer, and
// a corrupt disk entry is quarantined and reads as a miss. Then it pins
// what the tiers add: Tiered's promotion, write-through and degradation,
// and the remote view's error mapping.
func TestStoreConformance(t *testing.T) {
	for _, tier := range storeTiers {
		t.Run(tier.name, func(t *testing.T) { testStoreContract(t, tier) })
	}
	t.Run("tiered-promotes-and-writes-through", testTieredPromotion)
	t.Run("tiered-slow-failure-degrades-durability", testTieredSlowFailure)
	t.Run("remote-bare-5xx-unreachable", testRemoteBare5xx)
}

func testStoreContract(t *testing.T, tier storeTier) {
	ctx := context.Background()
	dir := t.TempDir()
	s := tier.open(t, dir)

	if _, err := s.Get(ctx, "job-absent"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("miss: err=%v, want ErrNotFound", err)
	}

	payloads := map[string][]byte{
		"job-0001": []byte(`{"kind":"check"}`),
		"job-0002": {0, '\n', 0xff, '{', '\r', '\n'},
		"job-0003": {},
	}
	buf := make([]byte, 0, 64)
	for key, want := range payloads {
		buf = append(buf[:0], want...)
		if err := s.Put(ctx, key, buf); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
		// The caller reuses its buffer; the stored entry must not alias it.
		for i := range buf {
			buf[i] = 'X'
		}
	}
	for key, want := range payloads {
		got, err := s.Get(ctx, key)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get %s = %q, %v; want %q", key, got, err, want)
		}
	}
	if err := s.Put(ctx, "job-0001", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(ctx, "job-0001"); err != nil || string(got) != "v2" {
		t.Errorf("overwritten Get = %q, %v; want v2", got, err)
	}

	if !tier.disk {
		return
	}
	// Damage every committed entry on disk, then come back as a restart
	// would: the entries are quarantined and read as misses, never served
	// corrupt.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "e-") {
			p := filepath.Join(dir, de.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, append(data, '!'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	s = tier.open(t, dir)
	if _, err := s.Get(ctx, "job-0001"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("corrupt entry: err=%v, want ErrNotFound", err)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != len(payloads) {
		t.Fatalf("quarantine holds %d files (%v), want %d", len(q), err, len(payloads))
	}
}

// testTieredPromotion pins the tier mechanics: a put writes through to
// the slow tier, a fast miss falls through and promotes, so the next
// lookup costs the slow tier nothing, and a miss in both tiers is a plain
// miss.
func testTieredPromotion(t *testing.T) {
	ctx := context.Background()
	disk := openDisk(t, t.TempDir())
	data := []byte(`{"kind":"check"}`)
	if err := engine.Tiered(engine.NewCache(16).Blobs(), disk).Put(ctx, "job-0001", data); err != nil {
		t.Fatal(err)
	}
	if st := disk.Stats(); st.Puts != 1 {
		t.Fatalf("disk puts = %d after a tiered put, want 1 (write-through)", st.Puts)
	}

	// A fresh memory tier over the same disk: memory cold, disk warm.
	mem := engine.NewCache(16).Blobs()
	s := engine.Tiered(mem, disk)
	for i := 0; i < 2; i++ {
		if got, err := s.Get(ctx, "job-0001"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %d = %q, %v", i, got, err)
		}
		if st := disk.Stats(); st.Hits != 1 {
			t.Fatalf("disk hits = %d after Get %d, want 1 (promoted after the first)", st.Hits, i)
		}
	}
	if got, err := mem.Get(ctx, "job-0001"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("memory tier after promotion = %q, %v", got, err)
	}
	if _, err := s.Get(ctx, "job-absent"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("miss in both tiers = %v, want ErrNotFound", err)
	}
}

// testTieredSlowFailure pins that a failing slow tier costs durability,
// not availability: puts still succeed and are served from memory, and
// lookups still classify as misses.
func testTieredSlowFailure(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := engine.Tiered(engine.NewCache(16).Blobs(), openDisk(t, dir))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put with a failing disk = %v, want nil", err)
	}
	if got, err := s.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("memory tier lost the entry when the disk failed: %q, %v", got, err)
	}
	if _, err := s.Get(ctx, "other"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Get with a failing disk = %v, want ErrNotFound", err)
	}
}

// testRemoteBare5xx pins the remote view's error mapping beyond 404: a
// bare 5xx from a worker's store (its listener up before its store is
// wired, say) is a transport-level UnreachableError on both Get and Put,
// so the coordinator marks the node down instead of failing.
func testRemoteBare5xx(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "restarting", http.StatusInternalServerError)
	}))
	defer ts.Close()
	s := cluster.NewRemoteBackend("w0", ts.URL, resilience.Backoff{Attempts: 2, Base: time.Millisecond}).Store()
	if _, err := s.Get(context.Background(), "k"); !cluster.IsUnreachable(err) || errors.Is(err, engine.ErrNotFound) {
		t.Errorf("Get on a bare 500 = %v, want UnreachableError", err)
	}
	if err := s.Put(context.Background(), "k", []byte("v")); !cluster.IsUnreachable(err) {
		t.Errorf("Put on a bare 500 = %v, want UnreachableError", err)
	}
}

// TestFinishedJobStoreTraffic pins dsed's store traffic per finished job:
// exactly one disk put and nothing added to the memory tier. Only
// /v1/store puts and promotions on a get fill memory.
func TestFinishedJobStoreTraffic(t *testing.T) {
	d := startDurableDaemon(t, t.TempDir())
	id := submitAsync(t, d, simulateBody(100))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec, err := d.store.Await(ctx, id)
	if err != nil || rec.Status != engine.StatusDone {
		t.Fatalf("job = %+v, %v", rec, err)
	}
	if err := d.store.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := d.dm.Store().Stats(); st.Puts != 1 {
		t.Errorf("disk puts = %d, want 1", st.Puts)
	}
	if _, err := d.runner.Cache.Blobs().Get(ctx, rec.Fingerprint); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("finished job filled the memory tier: %v", err)
	}
}
