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

// TestCacheFDistCountsProbe: a cached FDist miss on the tree route counts
// its image in insight.probe.{calls,evals} — one call, one eval per halted
// execution — as insight.FDist does; a hit images nothing and counts
// nothing.
func TestCacheFDistCountsProbe(t *testing.T) {
	c := engine.NewCache(16)
	w := testaut.RandomWalk("w", 4, 0.5)
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
}

// TestCachedIdentity is the memoization regression: every cached accessor
// must return results identical to the uncached computation.
func TestCachedIdentity(t *testing.T) {
	c := engine.NewCache(64)
	w := psioa.MustCompose(coin.Flipper("x", 0.625), coin.Env("x"))
	s := &sched.Greedy{A: w, Bound: 4, LocalOnly: true}
	f := insight.Trace()
	const depth = 8

	emPlain, err := sched.Measure(w, s, depth)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // round 1 exercises the hit path
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
	if _, err := c.ExploreCtx(context.Background(), w, 1000, nil); err != nil {
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

// TestCachedMeasureConcurrentViews: eight goroutines share one cached
// execution measure before any of its views exist, and key its fragments
// while they read them. The ordered views and the fragment keys are built
// lazily by whichever reader comes first, so under -race this is the
// soundness check for that sharing; every reader must see exactly what an
// unshared measure shows.
func TestCachedMeasureConcurrentViews(t *testing.T) {
	w := testaut.RandomWalk("cv", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 9}
	ref, err := sched.Measure(w, s, 12)
	if err != nil {
		t.Fatal(err)
	}
	render := func(em *sched.ExecMeasure, cones []*psioa.Frag) string {
		var b strings.Builder
		em.ForEach(func(f *psioa.Frag, p float64) { fmt.Fprintf(&b, "H %s %v\n", f.Key(), p) })
		em.ForEachPrefix(func(f *psioa.Frag) { fmt.Fprintf(&b, "P %s\n", f.Key()) })
		d := em.Dist()
		for _, k := range d.SortedSupport() {
			fmt.Fprintf(&b, "D %s %v\n", k, d.P(k))
		}
		for _, f := range cones {
			fmt.Fprintf(&b, "C %s %v\n", f.Key(), em.Cone(f))
		}
		return b.String()
	}
	// Fragments decoded from keys, not the measure's own views.
	var foreign []*psioa.Frag
	ref.ForEachPrefix(func(f *psioa.Frag) {
		if g, err := psioa.FragFromKey(f.Key()); err == nil && len(foreign) < 64 {
			foreign = append(foreign, g)
		}
	})
	want := render(ref, foreign)

	c := engine.NewCache(0)
	shared, err := c.MeasureOpts(context.Background(), w, s, 12, nil, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			em, err := c.MeasureOpts(context.Background(), w, s, 12, nil, sched.Options{})
			if err != nil || em != shared {
				got[g] = fmt.Sprintf("cache returned %p, %v; want the shared measure", em, err)
				return
			}
			<-start
			got[g] = render(em, foreign)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != want {
			t.Fatalf("goroutine %d saw a different measure:\n%.300s\nwant\n%.300s", g, got[g], want)
		}
	}
}

// keyRecorder is a core.Memo that records the distinct f-dist keys a check
// looks up, by world fingerprint, scheduler, insight and depth, and
// computes each image uncached.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (r *keyRecorder) FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	fp, err := engine.Fingerprint(w, 0)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.keys[fmt.Sprintf("%s|%s|%s|%d", fp, s.Name(), f.ID, maxDepth)] = true
	r.mu.Unlock()
	return insight.FDistOpts(ctx, w, s, f, maxDepth, b, o)
}

// fdistKeys runs the check cs through core.Implements under a keyRecorder
// and returns the number of distinct f-dist keys it looked up.
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
// one f-dist image per distinct f-dist key in the cache, and nothing else:
// no execution measure of a tree-route image and no exploration.
func TestCheckCachesImagesOnly(t *testing.T) {
	for name, cs := range map[string]*engine.CheckSpec{"coin": coinCheck(), "channel": chanCheck()} {
		c := engine.NewCache(0)
		job := engine.Job{Kind: engine.KindCheck, Check: cs}
		if _, err := engine.NewRunner(engine.NewPool(4), c).Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if got, want := c.Len(), fdistKeys(t, cs); got != want || want == 0 {
			t.Errorf("%s: the cache holds %d entries, want one per f-dist key (%d)", name, got, want)
		}
		for _, v := range c.Values() {
			if _, ok := v.(*measure.Dist[string]); !ok {
				t.Errorf("%s: the cache holds a %T", name, v)
			}
		}
	}
}

// TestSimulateExpandsOnce: a fresh exact trace simulate on the tree route
// expands its execution measure once, and its image reads that cached
// measure instead of expanding it again; a resend expands nothing. The
// cache then holds the measure and its image. The 0.3 coin's masses are
// not dyadic, so the job takes the tree route (see TestStepFoldRoute for
// the DAG route).
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
	var measures, images int
	for _, v := range c.Values() {
		switch v.(type) {
		case *sched.ExecMeasure:
			measures++
		case *measure.Dist[string]:
			images++
		default:
			t.Errorf("the cache holds a %T", v)
		}
	}
	if measures != 1 || images != 1 {
		t.Errorf("the cache holds %d measures and %d images, want 1 and 1", measures, images)
	}
}
