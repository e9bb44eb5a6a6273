package engine_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/obs"
	"repro/internal/protocols/channel"
	"repro/internal/protocols/coin"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

func TestFingerprintCanonical(t *testing.T) {
	fp1, err := engine.Fingerprint(coin.Fair("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := engine.Fingerprint(coin.Fair("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("same automaton, different fingerprints: %s vs %s", fp1, fp2)
	}
	fp3, err := engine.Fingerprint(coin.Flipper("x", 0.75), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp3 {
		t.Error("fair and biased coin share a fingerprint")
	}
	// A composition fingerprints like itself, built twice.
	w1 := psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	w2 := psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	g1, err := engine.Fingerprint(w1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := engine.Fingerprint(w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("structurally identical compositions fingerprint differently")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	ev0 := obs.C("engine.cache.evictions").Value()
	// A single shard pins the exact global LRU order; the striped default
	// only guarantees LRU order per shard.
	c := engine.NewCacheSharded(2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should have survived")
	}
	if got := obs.C("engine.cache.evictions").Value() - ev0; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := engine.NewCache(16)
	w := psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	s := &sched.Greedy{A: w, Bound: 3, LocalOnly: true}

	hits0 := obs.C("engine.cache.hits").Value()
	miss0 := obs.C("engine.cache.misses").Value()
	if _, err := c.FDist(w, s, insight.Trace(), 6); err != nil {
		t.Fatal(err)
	}
	if obs.C("engine.cache.hits").Value() != hits0 {
		t.Error("cold FDist should not hit")
	}
	if obs.C("engine.cache.misses").Value() == miss0 {
		t.Error("cold FDist should record misses")
	}
	hits1 := obs.C("engine.cache.hits").Value()
	if _, err := c.FDist(w, s, insight.Trace(), 6); err != nil {
		t.Fatal(err)
	}
	if obs.C("engine.cache.hits").Value() <= hits1 {
		t.Error("warm FDist should hit the cache")
	}
}

// TestCachedIdentity is the memoization regression: every cached accessor
// must return results identical to the uncached computation.
func TestCachedIdentity(t *testing.T) {
	c := engine.NewCache(64)
	w := psioa.MustCompose(coin.Flipper("x", 0.625), coin.Env("x"))
	s := &sched.Greedy{A: w, Bound: 4, LocalOnly: true}
	f := insight.Trace()
	const depth = 8

	exPlain, err := psioa.Explore(w, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // round 1 exercises the hit path
		ex, err := c.Explore(w, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.States) != len(exPlain.States) || ex.Truncated != exPlain.Truncated {
			t.Errorf("round %d: cached exploration differs: %d states vs %d",
				round, len(ex.States), len(exPlain.States))
		}
	}

	emPlain, err := sched.Measure(w, s, depth)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		em, err := c.Measure(w, s, depth)
		if err != nil {
			t.Fatal(err)
		}
		if em.Len() != emPlain.Len() || em.Total() != emPlain.Total() || em.MaxLen() != emPlain.MaxLen() {
			t.Errorf("round %d: cached measure differs: len %d/%d total %v/%v",
				round, em.Len(), emPlain.Len(), em.Total(), emPlain.Total())
		}
	}

	dPlain, err := insight.FDist(w, s, f, depth)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		d, err := c.FDist(w, s, f, depth)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != dPlain.Len() {
			t.Fatalf("round %d: support size %d, want %d", round, d.Len(), dPlain.Len())
		}
		for _, k := range dPlain.Support() {
			if math.Abs(d.P(k)-dPlain.P(k)) > 0 {
				t.Errorf("round %d: P(%q) = %v, want %v", round, k, d.P(k), dPlain.P(k))
			}
		}
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *engine.Cache
	w := psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	s := &sched.Greedy{A: w, Bound: 3, LocalOnly: true}
	if _, err := c.Explore(w, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(w, s, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FDist(w, s, insight.Trace(), 6); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("nil cache has entries?")
	}
}

func TestSchedulerNameDisambiguates(t *testing.T) {
	// Two different schedulers on the same automaton must not alias in the
	// cache: the memo key includes Scheduler.Name().
	c := engine.NewCache(64)
	w := psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	g := &sched.Greedy{A: w, Bound: 1, LocalOnly: true}
	g2 := &sched.Greedy{A: w, Bound: 4, LocalOnly: true}
	em1, err := c.Measure(w, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	em2, err := c.Measure(w, g2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if em1.MaxLen() == em2.MaxLen() {
		t.Errorf("bound-1 and bound-4 greedy measures alias: MaxLen %d both", em1.MaxLen())
	}
}

// TestCacheStripedDeterminism pins the shard design: fnv-1a shard selection
// is stable across runs, so a fixed operation sequence leaves the same
// surviving keys for a fixed (capacity, shards) pair — per-shard LRU
// eviction is deterministic at any stripe count.
func TestCacheStripedDeterminism(t *testing.T) {
	ops := func(c *engine.Cache) string {
		for i := 0; i < 64; i++ {
			c.Put(fmt.Sprintf("k%d", i), i)
			if i%3 == 0 {
				c.Get(fmt.Sprintf("k%d", i/2))
			}
		}
		var surviving []string
		for i := 0; i < 64; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := c.Get(k); ok {
				surviving = append(surviving, k)
			}
		}
		return strings.Join(surviving, ",")
	}
	for _, shards := range []int{1, 8} {
		a := ops(engine.NewCacheSharded(16, shards))
		b := ops(engine.NewCacheSharded(16, shards))
		if a != b {
			t.Errorf("shards=%d: same op sequence, different survivors:\n%s\nvs\n%s", shards, a, b)
		}
	}
}

// TestCacheShardedClamps pins the constructor invariants: stripes never
// exceed capacity, defaults apply, and capacity stays an aggregate bound.
func TestCacheShardedClamps(t *testing.T) {
	if got := engine.NewCacheSharded(2, 8).Shards(); got != 2 {
		t.Errorf("Shards() = %d, want clamped to capacity 2", got)
	}
	if got := engine.NewCacheSharded(0, 0).Shards(); got != engine.DefaultCacheShards {
		t.Errorf("Shards() = %d, want default %d", got, engine.DefaultCacheShards)
	}
	c := engine.NewCacheSharded(16, 4)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	// Per-shard caps round up, so the aggregate bound is capacity + shards-1
	// in the worst hash skew.
	if c.Len() > 16+3 {
		t.Errorf("Len = %d after overfill, want <= 19", c.Len())
	}
}

// TestCacheConcurrentAccess hammers the striped cache from many goroutines —
// the race detector validates the locking, and the size gauge must settle to
// the real entry count.
func TestCacheConcurrentAccess(t *testing.T) {
	c := engine.NewCacheSharded(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%96)
				if _, ok := c.Get(k); !ok {
					c.Put(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	for i := 0; i < 96; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			n++
		}
	}
	if c.Len() != n {
		t.Errorf("Len = %d, but %d keys present", c.Len(), n)
	}
}

// TestFingerprintSingleFlight: concurrent misses on one automaton share a
// single fingerprint computation.
func TestFingerprintSingleFlight(t *testing.T) {
	w := psioa.MustCompose(testaut.RandomWalk("a", 24, 0.5), testaut.RandomWalk("b", 24, 0.5))
	c := engine.NewCache(0)
	counter := obs.C("engine.fingerprints")
	before := counter.Value()
	const n = 8
	fps := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fp, err := c.Fingerprint(w)
			if err != nil {
				t.Error(err)
			}
			fps[i] = fp
		}(i)
	}
	close(start)
	wg.Wait()
	if got := counter.Value() - before; got != 1 {
		t.Errorf("%d goroutines computed %d fingerprints, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if fps[i] != fps[0] {
			t.Fatalf("goroutine %d got fingerprint %q, goroutine 0 got %q", i, fps[i], fps[0])
		}
	}
}

// TestFingerprintFailureNotMemoized: an automaton that cannot be
// fingerprinted (here, incompatible at its start state) fails every call,
// concurrent or not, and leaves nothing behind in the memo.
func TestFingerprintFailureNotMemoized(t *testing.T) {
	w := psioa.MustCompose(testaut.Coin("x", 0.5), psioa.RenameMap(testaut.Coin("y", 0.5), map[psioa.Action]psioa.Action{"flip_y": "flip_x"}))
	c := engine.NewCache(0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Fingerprint(w); err == nil {
				t.Error("fingerprinting an incompatible world succeeded")
			}
		}()
	}
	wg.Wait()
	if _, err := c.Fingerprint(w); err == nil {
		t.Error("a later call succeeded on an incompatible world")
	}
}

// TestFingerprintGolden pins fingerprint values, which durable stores and
// clusters use as keys: a change to how the hash input is written must not
// change them.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		a     psioa.PSIOA
		limit int
		want  string
	}{
		{psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x")), 0, "26fee606846a69d167fb203d6592077f"},
		{psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x")), 7, "f8aac6881f7b2007905d9c59e21e89af!trunc"},
		{psioa.MustCompose(testaut.Coin("c0", 0.3), testaut.Coin("c1", 0.25)), 0, "8b4341a10ca7b9564c363cd52eec075e"},
		{psioa.MustCompose(testaut.Coin("c0", 0.3), testaut.Coin("c1", 0.25)), 7, "fe9dd82d3889b3a978c437af64d05ed2!trunc"},
	}
	for _, c := range cases {
		got, err := engine.Fingerprint(c.a, c.limit)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Fingerprint(%s, %d) = %s, want %s", c.a.ID(), c.limit, got, c.want)
		}
	}
}
