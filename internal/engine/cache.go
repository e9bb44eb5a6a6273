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

// Cache is a concurrency-safe, size-bounded LRU cache of answers: f-dist
// images (Def 3.5) of implementation checks and simulations, plus the
// execution measure of an exact simulate job, the one measure that is read
// again. Keys are a canonical automaton fingerprint plus scheduler name,
// insight id and depth. Explorations are not memoized: the fingerprint
// that keys an entry explores the automaton and builds its transition
// measures, so a hit would save less than its key costs. It implements
// core.Memo, so it can be plugged into core.Options directly. Storage is
// lock-striped: keys map to N independent mutex-LRU shards by key hash, so
// the concurrent callers of the parallel kernels do not serialize on a
// single mutex, while hit/miss/eviction counters stay aggregated.
//
// Cached values are shared between callers and must be treated as
// read-only; everything the engine caches (ExecMeasure, measure.Dist) is
// immutable after construction.
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

// Typed memo keys are fixed-width: one kind byte plus the 16-byte fnv-1a
// 128 hash of the key parts. Seventeen bytes regardless of fingerprint,
// scheduler-name or insight-ID length, so shard routing and LRU map probes
// stop re-hashing long concatenated strings on every cache access.
const (
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

// ExploreCtx is psioa.ExploreCtx; the cache memoizes no explorations (see
// Cache). It stays only because bench/describe.go calls it.
func (c *Cache) ExploreCtx(ctx context.Context, a psioa.PSIOA, limit int, b *resilience.Budget) (*psioa.Exploration, error) {
	return psioa.ExploreCtx(ctx, a, limit, b)
}

// Measure is a memoizing sched.Measure: the exact execution measure of a
// (automaton, scheduler, depth) triple is expanded once and reused. A nil
// cache passes through.
func (c *Cache) Measure(a psioa.PSIOA, s sched.Scheduler, maxDepth int) (*sched.ExecMeasure, error) {
	return c.MeasureOpts(context.Background(), a, s, maxDepth, nil, sched.Options{})
}

// MeasureOpts is Measure threading cancellation, a budget and kernel
// options into the expansion. It is the only writer of measure entries:
// an exact simulate job reads its measure here and then images it through
// FDistOpts, and a resent job reads both back. Measures are byte-identical
// at every worker count, so they share cache keys. A budget-bounded
// partial measure is returned with its error but never cached.
func (c *Cache) MeasureOpts(ctx context.Context, a psioa.PSIOA, s sched.Scheduler, maxDepth int, b *resilience.Budget, o sched.Options) (*sched.ExecMeasure, error) {
	if c == nil {
		return sched.MeasureOpts(ctx, a, s, maxDepth, b, o)
	}
	fp, err := c.Fingerprint(a)
	if err != nil {
		return nil, err
	}
	m := obs.MeterFrom(ctx)
	key := measureKey(fp, s, maxDepth)
	if v, ok := c.get(m, key); ok {
		return v.(*sched.ExecMeasure), nil
	}
	em, err := sched.MeasureOpts(ctx, a, s, maxDepth, b, o)
	if err != nil {
		return em, err
	}
	c.put(m, key, em)
	return em, nil
}

// measureKey is the memo key of the execution measure of (a, s, maxDepth),
// where fp is a's fingerprint.
func measureKey(fp string, s sched.Scheduler, maxDepth int) string {
	return memoKey(memoMeasure, fp, s.Name(), strconv.Itoa(maxDepth))
}

// FDist is a memoizing insight.FDist, the hot path of Implements: the image
// distribution is cached per (automaton, scheduler, insight, depth). A nil
// cache passes through.
func (c *Cache) FDist(w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int) (*measure.Dist[string], error) {
	return c.FDistOpts(context.Background(), w, s, f, maxDepth, nil, sched.Options{})
}

// FDistOpts is FDist threading cancellation, a budget and kernel options
// into the underlying computation; it implements core.Memo. On a miss, an
// insight without a state-local factoring images the execution measure
// that MeasureOpts cached for the same (automaton, scheduler, depth), if
// there is one. Otherwise insight.FDistOpts computes the image on the
// route it picks: a state-local insight may take the DAG route there,
// whose floats agree with a tree image only up to summation order. Only
// the image is cached; the measure a miss expands is dropped, because no
// later lookup reads it. Interrupted computations, budget-bounded ones
// included, are never cached.
func (c *Cache) FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	if c == nil {
		return insight.FDistOpts(ctx, w, s, f, maxDepth, b, o)
	}
	fp, err := c.Fingerprint(w)
	if err != nil {
		return nil, err
	}
	m := obs.MeterFrom(ctx)
	key := memoKey(memoFDist, fp, s.Name(), f.ID, strconv.Itoa(maxDepth))
	if v, ok := c.get(m, key); ok {
		return v.(*measure.Dist[string]), nil
	}
	if f.StateLocal == nil {
		if v, ok := c.get(m, measureKey(fp, s, maxDepth)); ok {
			img := insight.Image(w, v.(*sched.ExecMeasure), f)
			c.put(m, key, img)
			return img, nil
		}
	}
	img, err := insight.FDistOpts(ctx, w, s, f, maxDepth, b, o)
	if err != nil {
		return nil, err
	}
	c.put(m, key, img)
	return img, nil
}
