package engine_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/protocols/channel"
	"repro/internal/protocols/coin"
	"repro/internal/psioa"
	"repro/internal/resilience"
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

// assertUncached runs run and fails the test if it moved the cache's hit
// or miss counters, computed a fingerprint, or left an entry in c: what a
// DAG-answered computation must do.
func assertUncached(t *testing.T, where string, c *engine.Cache, run func()) {
	t.Helper()
	fps, hits, misses := obs.C("engine.fingerprints"), obs.C("engine.cache.hits"), obs.C("engine.cache.misses")
	f0, h0, m0 := fps.Value(), hits.Value(), misses.Value()
	run()
	if f, h, m := fps.Value()-f0, hits.Value()-h0, misses.Value()-m0; f != 0 || h != 0 || m != 0 || c.Len() != 0 {
		t.Errorf("%s: %d fingerprints, %d hits, %d misses, %d entries; want none on the DAG route", where, f, h, m, c.Len())
	}
}

// TestCacheHitMissCounters: on the tree route a cold FDist misses and a
// warm one hits. The 0.3 coin's masses are not dyadic, so the tree answers
// its trace; the fair coin's are, so the DAG answers it, uncached.
func TestCacheHitMissCounters(t *testing.T) {
	c := engine.NewCache(16)
	w := psioa.MustCompose(coin.Flipper("x", 0.3), coin.Env("x"))
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

	c = engine.NewCache(16)
	w = psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	s = &sched.Greedy{A: w, Bound: 3, LocalOnly: true}
	assertUncached(t, "fair coin", c, func() {
		for range 2 {
			if _, err := c.FDist(w, s, insight.Trace(), 6); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCacheFDistCountsProbe: a cached FDist miss on the tree route counts
// its image in insight.probe.{calls,evals} — one call, one eval per halted
// execution — as insight.FDist does; a hit images nothing and counts
// nothing. The 0.3 walk's masses are not dyadic, so the tree answers it;
// the fair walk's are, so the DAG answers it, uncached.
func TestCacheFDistCountsProbe(t *testing.T) {
	c := engine.NewCache(16)
	w := testaut.RandomWalk("w", 4, 0.3)
	s := &sched.Greedy{A: w, Bound: 6, LocalOnly: true}
	em, err := sched.Measure(w, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ calls, evals int64 }{{1, int64(em.Len())}, {0, 0}} {
		calls0, evals0 := obs.C("insight.probe.calls").Value(), obs.C("insight.probe.evals").Value()
		if _, err := c.FDist(w, s, insight.Trace(), 8); err != nil {
			t.Fatal(err)
		}
		calls, evals := obs.C("insight.probe.calls").Value()-calls0, obs.C("insight.probe.evals").Value()-evals0
		if calls != want.calls || evals != want.evals {
			t.Errorf("probe calls/evals = %d/%d, want %d/%d", calls, evals, want.calls, want.evals)
		}
	}

	c = engine.NewCache(16)
	w = testaut.RandomWalk("w", 4, 0.5)
	s = &sched.Greedy{A: w, Bound: 6, LocalOnly: true}
	assertUncached(t, "fair walk", c, func() {
		for range 2 {
			if _, err := c.FDist(w, s, insight.Trace(), 8); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCachedIdentity is the memoization regression: every cached accessor
// must return results identical to the uncached computation, on the DAG
// route (the 5/8 coin) and on the tree route, hit path included (the 0.3
// coin).
func TestCachedIdentity(t *testing.T) {
	for _, p := range []float64{0.625, 0.3} {
		c := engine.NewCache(64)
		w := psioa.MustCompose(coin.Flipper("x", p), coin.Env("x"))
		s := &sched.Greedy{A: w, Bound: 4, LocalOnly: true}
		f := insight.Trace()
		const depth = 8

		emPlain, err := sched.Measure(w, s, depth)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // round 1 exercises the hit path
			a, err := c.Exact(context.Background(), w, s, f, depth, nil, sched.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if a.Executions != emPlain.Len() || a.Total != emPlain.Total() || a.MaxLen != emPlain.MaxLen() {
				t.Errorf("coin %v round %d: cached aggregates differ: len %d/%d total %v/%v",
					p, round, a.Executions, emPlain.Len(), a.Total, emPlain.Total())
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
				t.Fatalf("coin %v round %d: support size %d, want %d", p, round, d.Len(), dPlain.Len())
			}
			for _, k := range dPlain.Support() {
				if math.Abs(d.P(k)-dPlain.P(k)) > 0 {
					t.Errorf("coin %v round %d: P(%q) = %v, want %v", p, round, k, d.P(k), dPlain.P(k))
				}
			}
		}
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *engine.Cache
	w := psioa.MustCompose(coin.Fair("x"), coin.Env("x"))
	s := &sched.Greedy{A: w, Bound: 3, LocalOnly: true}
	if _, err := c.ExploreCtx(context.Background(), w, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MeasureOpts(context.Background(), w, s, 6, nil, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exact(context.Background(), w, s, insight.Trace(), 6, nil, sched.Options{}, true); err != nil {
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
	// cache: the memo key includes Scheduler.Name(). The 0.3 coin's
	// answers take the tree route, which the cache keeps.
	c := engine.NewCache(64)
	w := psioa.MustCompose(coin.Flipper("x", 0.3), coin.Env("x"))
	g := &sched.Greedy{A: w, Bound: 1, LocalOnly: true}
	g2 := &sched.Greedy{A: w, Bound: 4, LocalOnly: true}
	a1, err := c.Exact(context.Background(), w, g, insight.Trace(), 8, nil, sched.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Exact(context.Background(), w, g2, insight.Trace(), 8, nil, sched.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || a1.MaxLen == a2.MaxLen {
		t.Errorf("bound-1 and bound-4 greedy answers alias: %d entries, MaxLen %d and %d", c.Len(), a1.MaxLen, a2.MaxLen)
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

// TestFingerprintGolden pins fingerprint values, which key the engine
// cache's answers: a change to how the hash input is written must not
// change them. (Durable stores and clusters key by Job.Fingerprint, a hash
// of the job's kind, spec and budget, not by these.)
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

// keyRecorder is a core.Memo that records the distinct f-dist keys a check
// looks up on the tree route, by world fingerprint, scheduler, insight and
// depth, and computes each image uncached.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (r *keyRecorder) FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	a, err := insight.Exact(ctx, w, s, f, maxDepth, b, o, false, func(expand func() (*insight.Answer, error)) (*insight.Answer, error) {
		fp, err := engine.Fingerprint(w, 0)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.keys[fmt.Sprintf("%s|%s|%s|%d", fp, s.Name(), f.ID, maxDepth)] = true
		r.mu.Unlock()
		return expand()
	})
	if err != nil {
		return nil, err
	}
	return a.Image, nil
}

// fdistKeys runs the check cs through core.Implements under a keyRecorder
// and returns the number of distinct f-dist keys it looked up on the tree
// route.
func fdistKeys(t *testing.T, cs *engine.CheckSpec) int {
	t.Helper()
	schema, err := engine.SchemaByName(cs.Schema, cs.Templates)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := engine.InsightByName(cs.Insight)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]psioa.PSIOA, len(cs.Envs))
	for i, ref := range cs.Envs {
		envs[i] = mustResolve(t, ref)
	}
	rec := &keyRecorder{keys: map[string]bool{}}
	_, err = core.Implements(mustResolve(t, cs.Left), mustResolve(t, cs.Right), core.Options{
		Envs: envs, Schema: schema, Insight: ins, Eps: cs.Eps, Q1: cs.Q1, Q2: cs.Q2, MaxDepth: cs.MaxDepth, Memo: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return len(rec.keys)
}

// TestCheckCachesImagesOnly: a check job on a fresh runner leaves exactly
// one answer per distinct tree-route f-dist key in the cache, and nothing
// else: no execution measure and no exploration. The 0.3 coin and the 0.3
// leak make the left worlds' masses non-dyadic, so their f-dists take the
// tree route; on the dyadic checks (the 5/8 coin, the 0.5 leak) the DAG
// answers every f-dist, and the job stores nothing and fingerprints
// nothing.
func TestCheckCachesImagesOnly(t *testing.T) {
	for name, cs := range map[string]*engine.CheckSpec{"coin": treeCoinCheck(), "channel": treeChanCheck()} {
		c := engine.NewCache(0)
		job := engine.Job{Kind: engine.KindCheck, Check: cs}
		if _, err := engine.NewRunner(engine.NewPool(4), c).Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if got, want := c.Len(), fdistKeys(t, cs); got != want || want == 0 {
			t.Errorf("%s: the cache holds %d entries, want one per f-dist key (%d)", name, got, want)
		}
		for _, v := range c.Values() {
			if a, ok := v.(*insight.Answer); !ok || a.Image == nil {
				t.Errorf("%s: the cache holds a %T", name, v)
			}
		}
	}
	for name, cs := range map[string]*engine.CheckSpec{"dyadic coin": coinCheck(), "dyadic channel": chanCheck()} {
		c := engine.NewCache(0)
		job := engine.Job{Kind: engine.KindCheck, Check: cs}
		assertUncached(t, name, c, func() {
			if _, err := engine.NewRunner(engine.NewPool(4), c).Run(context.Background(), job); err != nil {
				t.Fatal(err)
			}
		})
		if n := fdistKeys(t, cs); n != 0 {
			t.Errorf("%s: %d f-dist keys on the tree route, want 0", name, n)
		}
	}
}

// TestSimulateExpandsOnce: a fresh exact trace simulate on the tree route
// expands its execution measure once, and images that measure instead of
// expanding it again; a resend expands nothing. The cache then holds one
// answer, the image with the aggregates, and no measure. The 0.3 coin's
// masses are not dyadic, so the job takes the tree route (see
// TestStepFoldRoute for the DAG route).
func TestSimulateExpandsOnce(t *testing.T) {
	c := engine.NewCache(0)
	r := engine.NewRunner(nil, c)
	job := engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
		Systems: []string{"coin:biased:x:0.3", "coin:env:x"}, Bound: 8,
	}}
	calls := obs.C("sched.measure.calls")
	for i, want := range []int64{1, 0} {
		n0 := calls.Value()
		if _, err := r.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if got := calls.Value() - n0; got != want {
			t.Errorf("run %d: %d sched.measure calls, want %d", i, got, want)
		}
	}
	var answers int
	for _, v := range c.Values() {
		switch v.(type) {
		case *insight.Answer:
			answers++
		default:
			t.Errorf("the cache holds a %T", v)
		}
	}
	if answers != 1 {
		t.Errorf("the cache holds %d answers, want 1", answers)
	}
}

// TestTreeAnswersHoldNoMeasure: a tree-route simulate job and a tree-route
// check, each run twice on one runner, leave answers in the cache and no
// execution measure.
func TestTreeAnswersHoldNoMeasure(t *testing.T) {
	c := engine.NewCache(0)
	r := engine.NewRunner(engine.NewPool(2), c)
	jobs := []engine.Job{
		{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{Systems: []string{"coin:biased:x:0.3", "coin:env:x"}, Bound: 8}},
		{Kind: engine.KindCheck, Check: treeCoinCheck()},
	}
	for range 2 {
		for _, job := range jobs {
			if _, err := r.Run(context.Background(), job); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Len() == 0 {
		t.Fatal("the tree-route jobs cached nothing")
	}
	for _, v := range c.Values() {
		if _, ok := v.(*sched.ExecMeasure); ok {
			t.Error("the cache holds an execution measure")
		}
	}
}
