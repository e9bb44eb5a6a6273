package engine

import (
	"container/list"
	"context"
	"hash/fnv"
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

// Cache is a concurrency-safe, size-bounded LRU cache of answers. It holds
// answers only: the exact answers of the tree route (see Exact), one entry
// per question holding the image and the aggregates, and the raw blobs of a
// store's memory view (see blobs.go). It holds no automaton and no
// execution measure. Keys are a canonical automaton fingerprint, which each
// product keeps itself (see Fingerprint), plus scheduler name, insight id
// and depth, so a world the cache has served is collected once its job
// drops it. Answers of the state-collapsed DAG are not cached, and
// explorations are not memoized: the fingerprint that would key them is
// itself a full walk of the automaton, which costs about what the pass or
// the exploration does. It implements core.Memo, so it can be plugged into
// core.Options directly. Storage is lock-striped: keys map to N
// independent mutex-LRU shards by key hash, so the concurrent callers of
// the parallel kernels do not serialize on a single mutex, while
// hit/miss/eviction counters stay aggregated.
//
// Cached values are shared between callers and must be treated as
// read-only; everything the engine caches (insight.Answer, raw blobs) is
// immutable after construction.
//
// Memoization keys schedulers by Scheduler.Name(). Every schema in
// internal/sched produces structurally-descriptive names (the sequence, or
// the priority template of prefixes with its bound, is part of the name),
// which makes the name canonical per automaton; hand-built FuncSched values that reuse an ID for different
// behaviour on the same automaton would alias and must not be mixed with a
// shared cache.
type Cache struct {
	shards []cacheShard
	size   atomic.Int64 // total entries across shards (feeds gCacheSize)
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

// lock acquires the shard mutex, timing the wait when tracing is enabled,
// and returns the wait in µs.
func (sh *cacheShard) lock() int64 {
	if !obs.Active().Enabled() {
		sh.mu.Lock()
		return 0
	}
	t0 := time.Now()
	sh.mu.Lock()
	w := time.Since(t0).Microseconds()
	if w > 0 {
		sh.lockWaitUS.Add(w)
	}
	return w
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
func (c *Cache) Get(key string) (any, bool) { return c.get(nil, key) }

// get is Get charging the lookup to m (which may be nil).
func (c *Cache) get(m *obs.Meter, key string) (any, bool) {
	sh := c.shard(key)
	wait := sh.lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		cCacheMisses.Inc()
		sh.misses.Add(1)
		m.Cache(0, 1, 0, wait)
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
		m.Cache(0, 1, 1, wait)
		return nil, false
	}
	cCacheHits.Inc()
	sh.hits.Add(1)
	m.Cache(1, 0, 0, wait)
	sh.ll.MoveToFront(el)
	return el.Value.(*centry).val, true
}

// Put stores a value, evicting the shard's least-recently-used entries over
// its capacity. Aggregate hit/miss/eviction counters and the size gauge are
// shared across shards.
func (c *Cache) Put(key string, v any) { c.put(nil, key, v) }

// put is Put charging the lock wait and any evictions to m (which may be
// nil).
func (c *Cache) put(m *obs.Meter, key string, v any) {
	sh := c.shard(key)
	wait := sh.lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*centry).val = v
		sh.ll.MoveToFront(el)
		m.Cache(0, 0, 0, wait)
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
	m.Cache(0, 0, 1-n, wait)
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
// process-wide engine.cache.* metrics, over every caller of the cache.
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

// Memo keys are fixed-width: one kind byte plus the 16-byte fnv-1a 128
// hash of the key parts. Seventeen bytes regardless of fingerprint,
// scheduler-name or insight-ID length, so shard routing and LRU map probes
// stop re-hashing long concatenated strings on every cache access.
const memoFDist byte = 0x03

// memoKey builds the fixed-width key for a memo entry. Parts are
// NUL-separated before hashing, so no concatenation of distinct part
// tuples aliases; the kind byte keeps the namespace disjoint from
// rawPrefix.
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

// Fingerprint returns the canonical fingerprint of a. A product keeps its
// own (psioa.Product.Keyed): it is computed once, however many callers
// ask, and dies with the product. Any other automaton is fingerprinted on
// each call. A nil cache fingerprints too.
func (c *Cache) Fingerprint(a psioa.PSIOA) (string, error) { return c.fingerprint(nil, a) }

// fingerprint is Fingerprint walking under a job's ctx, which can stop the
// walk and whose meter times it; the walk charges no budget.
func (c *Cache) fingerprint(ctx context.Context, a psioa.PSIOA) (string, error) {
	compute := func() (string, error) { return fingerprint(ctx, a, DefaultFingerprintLimit) }
	if p, ok := a.(*psioa.Product); ok {
		return p.Keyed(compute)
	}
	return compute()
}

// ExploreCtx is psioa.ExploreCtx; the cache memoizes no explorations (see
// Cache). It stays only because bench/describe.go calls it.
func (c *Cache) ExploreCtx(ctx context.Context, a psioa.PSIOA, limit int, b *resilience.Budget) (*psioa.Exploration, error) {
	return psioa.ExploreCtx(ctx, a, limit, b)
}

// MeasureOpts is sched.MeasureOpts; the cache holds no measures (see
// Cache). It stays only because bench/kernels.go calls it.
func (c *Cache) MeasureOpts(ctx context.Context, a psioa.PSIOA, s sched.Scheduler, maxDepth int, b *resilience.Budget, o sched.Options) (*sched.ExecMeasure, error) {
	return sched.MeasureOpts(ctx, a, s, maxDepth, b, o)
}

// FDist is a memoizing insight.FDist, the hot path of Implements. A nil
// cache passes through.
func (c *Cache) FDist(w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int) (*measure.Dist[string], error) {
	return c.FDistOpts(context.Background(), w, s, f, maxDepth, nil, sched.Options{})
}

// FDistOpts is FDist threading cancellation, a budget and kernel options
// into Exact; it implements core.Memo. Interrupted computations, budget-
// bounded ones included, return no image.
func (c *Cache) FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	a, err := c.Exact(ctx, w, s, f, maxDepth, b, o, false)
	if err != nil {
		return nil, err
	}
	return a.Image, nil
}

// Exact is insight.Exact with the cache as its tree memo: a tree answer is
// looked up, and stored, under the world's fingerprint, the scheduler's
// name, the insight's ID and the depth; a DAG answer is neither, and takes
// no fingerprint. The stored answer holds the image and the tree's
// aggregates, and is the same whichever job stored it. Interrupted
// computations, budget-bounded partial ones included, are never stored. A
// nil cache passes through.
func (c *Cache) Exact(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options, agg bool) (*insight.Answer, error) {
	var memo insight.TreeMemo
	if c != nil {
		memo = func(expand func() (*insight.Answer, error)) (*insight.Answer, error) {
			fp, err := c.fingerprint(ctx, w)
			if err != nil {
				return nil, err
			}
			m := obs.MeterFrom(ctx)
			key := memoKey(memoFDist, fp, s.Name(), f.ID, strconv.Itoa(maxDepth))
			if v, ok := c.get(m, key); ok {
				return v.(*insight.Answer), nil
			}
			a, err := expand()
			if err == nil {
				c.put(m, key, a)
			}
			return a, err
		}
	}
	return insight.Exact(ctx, w, s, f, maxDepth, b, o, agg, memo)
}
