package engine

import (
	"container/list"
	"context"
	"hash/fnv"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// Observability instruments for the cache; hit/miss counters are the
// acceptance signal that memoization is actually engaging across repeated
// checks (GET /v1/metrics on the daemon exposes them).
var (
	cCacheHits      = obs.C("engine.cache.hits")
	cCacheMisses    = obs.C("engine.cache.misses")
	cCacheEvictions = obs.C("engine.cache.evictions")
	gCacheSize      = obs.G("engine.cache.size")
)

// DefaultCacheSize is the default entry bound of a Cache.
const DefaultCacheSize = 4096

// DefaultCacheShards is the default lock-stripe count of a Cache. With the
// kernels themselves now parallel, many goroutines hit the cache at once;
// striping by key hash keeps them from serializing on a single mutex.
const DefaultCacheShards = 8

// maxFingerprintMemo bounds the identity-keyed fingerprint memo; when
// exceeded it is dropped wholesale (fingerprints are recomputable).
const maxFingerprintMemo = 8192

// Cache is a concurrency-safe, size-bounded LRU cache for the expensive
// intermediate results of implementation checks: exploration results and
// execution-measure distributions, keyed by a canonical automaton
// fingerprint (plus scheduler name, insight id and depth). It implements
// core.Memo, so it can be plugged into core.Options directly. Storage is
// lock-striped: keys map to N independent mutex-LRU shards by key hash, so
// the concurrent callers of the parallel kernels do not serialize on a
// single mutex, while hit/miss/eviction counters stay aggregated.
//
// Cached values are shared between callers and must be treated as
// read-only; everything the engine caches (Exploration, ExecMeasure,
// measure.Dist) is immutable after construction.
//
// Memoization keys schedulers by Scheduler.Name(). Every schema in
// internal/sched produces structurally-descriptive names (the sequence or
// priority order is part of the name), which makes the name canonical per
// automaton; hand-built FuncSched values that reuse an ID for different
// behaviour on the same automaton would alias and must not be mixed with a
// shared cache.
type Cache struct {
	shards []cacheShard
	size   atomic.Int64 // total entries across shards (feeds gCacheSize)
	fpMu   sync.Mutex
	fps    map[psioa.PSIOA]*fpCall
}

// cacheShard is one mutex-striped LRU unit. Keys map to shards by fnv-1a
// hash, which is stable across runs, so a fixed operation sequence always
// touches the same shards in the same order and per-shard LRU eviction
// order is deterministic. Per-shard hit/miss/eviction counters (same cost
// class as the aggregate counters: one atomic add alongside each) expose
// stripe skew; lockWaitUS accumulates mutex acquisition wait and is
// collected only while tracing is enabled, so the default path pays no
// clock reads.
type cacheShard struct {
	mu         sync.Mutex
	cap        int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	lockWaitUS atomic.Int64
}

// lock acquires the shard mutex, timing the wait when tracing is enabled.
func (sh *cacheShard) lock() {
	if !obs.Active().Enabled() {
		sh.mu.Lock()
		return
	}
	t0 := time.Now()
	sh.mu.Lock()
	if w := time.Since(t0).Microseconds(); w > 0 {
		sh.lockWaitUS.Add(w)
	}
}

// CacheShardStat is a point-in-time view of one cache stripe: occupancy
// plus cumulative traffic and contention counters.
type CacheShardStat struct {
	Shard      int   `json:"shard"`
	Len        int   `json:"len"`
	Cap        int   `json:"cap"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	LockWaitUS int64 `json:"lock_wait_us,omitempty"`
}

type centry struct {
	key string
	val any
}

// NewCache returns a cache bounded to capacity entries (DefaultCacheSize if
// capacity <= 0), striped across DefaultCacheShards locks and
// fingerprinting automata with DefaultFingerprintLimit.
func NewCache(capacity int) *Cache {
	return NewCacheSharded(capacity, DefaultCacheShards)
}

// NewCacheSharded is NewCache with an explicit lock-stripe count. Capacity
// is divided across shards (rounded up, and shards are clamped to the
// capacity), so each shard evicts independently in its own deterministic
// LRU order; a single shard reproduces the exact global LRU of the
// unstriped cache.
func NewCacheSharded(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	if shards > capacity {
		shards = capacity
	}
	per := (capacity + shards - 1) / shards
	c := &Cache{
		shards: make([]cacheShard, shards),
		fps:    make(map[psioa.PSIOA]*fpCall),
	}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

// Shards returns the lock-stripe count.
func (c *Cache) Shards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}

// shard returns the stripe owning key.
func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &c.shards[h.Sum64()%uint64(len(c.shards))]
}

// Len returns the current number of cached entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.size.Load())
}

// Get returns the cached value for key, marking it most recently used in
// its shard. Under an armed cache.evict fault point a present entry is
// dropped and reported as a miss, forcing recomputation downstream.
func (c *Cache) Get(key string) (any, bool) {
	sh := c.shard(key)
	sh.lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		cCacheMisses.Inc()
		sh.misses.Add(1)
		return nil, false
	}
	if resilience.Fire(resilience.FaultCacheEvict) {
		sh.ll.Remove(el)
		delete(sh.items, key)
		gCacheSize.Set(c.size.Add(-1))
		cCacheEvictions.Inc()
		cCacheMisses.Inc()
		sh.evictions.Add(1)
		sh.misses.Add(1)
		return nil, false
	}
	cCacheHits.Inc()
	sh.hits.Add(1)
	sh.ll.MoveToFront(el)
	return el.Value.(*centry).val, true
}

// Put stores a value, evicting the shard's least-recently-used entries over
// its capacity. Aggregate hit/miss/eviction counters and the size gauge are
// shared across shards.
func (c *Cache) Put(key string, v any) {
	sh := c.shard(key)
	sh.lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*centry).val = v
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&centry{key: key, val: v})
	n := int64(1)
	for len(sh.items) > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.items, back.Value.(*centry).key)
		cCacheEvictions.Inc()
		sh.evictions.Add(1)
		n--
	}
	gCacheSize.Set(c.size.Add(n))
}

// ShardStats returns a per-stripe snapshot: occupancy under each shard's
// lock, counters atomically. Ordered by shard index; nil cache → nil.
func (c *Cache) ShardStats() []CacheShardStat {
	if c == nil {
		return nil
	}
	out := make([]CacheShardStat, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := len(sh.items)
		sh.mu.Unlock()
		out[i] = CacheShardStat{
			Shard:      i,
			Len:        n,
			Cap:        sh.cap,
			Hits:       sh.hits.Load(),
			Misses:     sh.misses.Load(),
			Evictions:  sh.evictions.Load(),
			LockWaitUS: sh.lockWaitUS.Load(),
		}
	}
	return out
}

// Totals sums the per-shard counters — the cache-local analogue of the
// process-wide engine.cache.* metrics, used to delta cache traffic around
// one job for its run report.
func (c *Cache) Totals() (hits, misses, evictions, lockWaitUS int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		hits += sh.hits.Load()
		misses += sh.misses.Load()
		evictions += sh.evictions.Load()
		lockWaitUS += sh.lockWaitUS.Load()
	}
	return hits, misses, evictions, lockWaitUS
}

// Typed memo keys are fixed-width: one kind byte plus the 16-byte fnv-1a
// 128 hash of the key parts. Seventeen bytes regardless of fingerprint,
// scheduler-name or insight-ID length, so shard routing and LRU map probes
// stop re-hashing long concatenated strings on every cache access.
const (
	memoExplore byte = 0x01
	memoMeasure byte = 0x02
	memoFDist   byte = 0x03
)

// memoKey builds the fixed-width key for a typed memo entry. Parts are
// NUL-separated before hashing, so no concatenation of distinct part
// tuples aliases; kind bytes keep the typed namespaces disjoint from each
// other and from rawPrefix.
func memoKey(kind byte, parts ...string) string {
	h := fnv.New128a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	b := make([]byte, 1, 17)
	b[0] = kind
	return string(h.Sum(b))
}

// Fingerprint returns the canonical fingerprint of a, memoized by identity
// for automata with comparable dynamic types (compositions produce fresh
// pointers per check, so the identity memo is bounded and periodically
// dropped rather than LRU-managed). Concurrent callers that miss on the
// same automaton wait for one computation. A failed computation is not
// memoized: its waiters retry.
func (c *Cache) Fingerprint(a psioa.PSIOA) (string, error) {
	if !reflect.TypeOf(a).Comparable() {
		return Fingerprint(a, DefaultFingerprintLimit)
	}
	for {
		c.fpMu.Lock()
		call, inFlight := c.fps[a]
		if !inFlight {
			if len(c.fps) >= maxFingerprintMemo {
				c.fps = make(map[psioa.PSIOA]*fpCall)
			}
			call = &fpCall{done: make(chan struct{})}
			c.fps[a] = call
		}
		c.fpMu.Unlock()
		if !inFlight {
			return c.fingerprintFor(a, call)
		}
		<-call.done
		if call.ok {
			return call.fp, nil
		}
	}
}

// fpCall is one fingerprint computation in the identity memo: done closes
// when it finishes, and fp is valid once done is closed if ok is set.
type fpCall struct {
	done chan struct{}
	fp   string
	ok   bool
}

// fingerprintFor computes the fingerprint that call's waiters share. If the
// computation errs or panics, the memo entry is removed before the waiters
// wake, so each of them retries.
func (c *Cache) fingerprintFor(a psioa.PSIOA, call *fpCall) (string, error) {
	defer func() {
		if !call.ok {
			c.fpMu.Lock()
			if c.fps[a] == call {
				delete(c.fps, a)
			}
			c.fpMu.Unlock()
		}
		close(call.done)
	}()
	fp, err := Fingerprint(a, DefaultFingerprintLimit)
	if err != nil {
		return "", err
	}
	call.fp, call.ok = fp, true
	return fp, nil
}

// Explore is a memoizing psioa.Explore: repeated explorations of
// structurally identical automata return the cached Exploration. A nil
// cache passes through.
func (c *Cache) Explore(a psioa.PSIOA, limit int) (*psioa.Exploration, error) {
	return c.ExploreCtx(context.Background(), a, limit, nil)
}

// ExploreCtx is Explore threading cancellation and a budget into the
// exploration. Results computed under an exhausted budget are partial and
// are returned to the caller but never cached.
func (c *Cache) ExploreCtx(ctx context.Context, a psioa.PSIOA, limit int, b *resilience.Budget) (*psioa.Exploration, error) {
	if c == nil {
		return psioa.ExploreCtx(ctx, a, limit, b)
	}
	fp, err := c.Fingerprint(a)
	if err != nil {
		return nil, err
	}
	key := memoKey(memoExplore, fp, strconv.Itoa(limit))
	if v, ok := c.Get(key); ok {
		return v.(*psioa.Exploration), nil
	}
	ex, err := psioa.ExploreCtx(ctx, a, limit, b)
	if err != nil {
		return ex, err
	}
	c.Put(key, ex)
	return ex, nil
}

// Measure is a memoizing sched.Measure: the exact execution measure of a
// (automaton, scheduler, depth) triple is expanded once and reused across
// checks. A nil cache passes through.
func (c *Cache) Measure(a psioa.PSIOA, s sched.Scheduler, maxDepth int) (*sched.ExecMeasure, error) {
	return c.MeasureOpts(context.Background(), a, s, maxDepth, nil, sched.Options{})
}

// MeasureOpts is Measure threading cancellation, a budget and kernel
// options into the expansion. Measures are byte-identical at every worker
// count, so they share cache keys: a measure expanded at one worker count
// is reused at any other. A budget-bounded partial measure is returned
// with its error but never cached: only complete expansions are reused.
func (c *Cache) MeasureOpts(ctx context.Context, a psioa.PSIOA, s sched.Scheduler, maxDepth int, b *resilience.Budget, o sched.Options) (*sched.ExecMeasure, error) {
	if c == nil {
		return sched.MeasureOpts(ctx, a, s, maxDepth, b, o)
	}
	fp, err := c.Fingerprint(a)
	if err != nil {
		return nil, err
	}
	key := memoKey(memoMeasure, fp, s.Name(), strconv.Itoa(maxDepth))
	if v, ok := c.Get(key); ok {
		return v.(*sched.ExecMeasure), nil
	}
	em, err := sched.MeasureOpts(ctx, a, s, maxDepth, b, o)
	if err != nil {
		return em, err
	}
	c.Put(key, em)
	return em, nil
}

// FDist is a memoizing insight.FDist, the hot path of Implements: the image
// distribution is cached per (automaton, scheduler, insight, depth), and a
// miss reuses a cached execution measure when one exists. A nil cache
// passes through.
func (c *Cache) FDist(w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int) (*measure.Dist[string], error) {
	return c.FDistOpts(context.Background(), w, s, f, maxDepth, nil, sched.Options{})
}

// FDistOpts is FDist threading cancellation, a budget and kernel options
// into the underlying expansion; it implements core.Memo. Interrupted
// computations — including budget-bounded partial measures — are never
// cached. State-local insights under depth-oblivious schedulers compute on
// the state-collapsed DAG (no tree expansion is performed or cached); other
// misses reuse or expand the tree measure through MeasureOpts. Both routes
// fill the same fdist key — the distributions agree — so DAG-computed
// images are reused by tree-routed callers and vice versa.
func (c *Cache) FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	if c == nil {
		return insight.FDistOpts(ctx, w, s, f, maxDepth, b, o)
	}
	fp, err := c.Fingerprint(w)
	if err != nil {
		return nil, err
	}
	key := memoKey(memoFDist, fp, s.Name(), f.ID, strconv.Itoa(maxDepth))
	if v, ok := c.Get(key); ok {
		return v.(*measure.Dist[string]), nil
	}
	if f.StateLocal != nil {
		if _, ok := sched.AsDepthOblivious(s); ok {
			img, err := insight.FDistOpts(ctx, w, s, f, maxDepth, b, o)
			if err != nil {
				return nil, err
			}
			c.Put(key, img)
			return img, nil
		}
	}
	em, err := c.MeasureOpts(ctx, w, s, maxDepth, b, o)
	if err != nil {
		return nil, err
	}
	img := em.Image(func(fr *psioa.Frag) string { return f.Apply(w, fr) })
	c.Put(key, img)
	return img, nil
}
