// Package intern provides the interned-ID state-space core (ROADMAP item
// 2): dense integer identifiers for the strings the measure kernels used to
// key everything by, and a read-mostly concurrent map that lets the
// parallel kernels share memo tables without serializing on a mutex.
//
// Two building blocks:
//
//   - Table is a single-goroutine string interner assigning dense uint32
//     IDs in first-touch order. Kernels allocate one per call (or per
//     shard) so interning never takes a lock; the dense IDs then index
//     plain slices — struct-of-arrays frontiers, cone indexes, per-state
//     mass accumulators — in place of string-keyed maps.
//   - RM is a read-mostly map: reads hit an immutable snapshot behind one
//     atomic load (no lock, no contention), writes go through a small
//     mutex-guarded overlay that is merged into a fresh snapshot
//     geometrically, so the amortized insert cost stays O(1) and the
//     fraction of keys that still require the mutex stays bounded.
//
// The representation boundary discipline: canonical strings remain the
// identity at the API/codec/fingerprint layer, and every ID is only
// meaningful relative to the Table that issued it. Nothing in this package
// changes a byte of any exported encoding.
package intern

import (
	"sync"
	"sync/atomic"
)

// Table interns strings to dense uint32 IDs in first-touch order. It is not
// safe for concurrent use: kernels create one per call (or one per shard,
// merged at a barrier) precisely so that interning stays lock-free.
type Table struct {
	names []string
	ids   map[string]uint32
}

// NewTable returns an empty table with capacity for sizeHint entries.
func NewTable(sizeHint int) *Table {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Table{
		names: make([]string, 0, sizeHint),
		ids:   make(map[string]uint32, sizeHint),
	}
}

// Intern returns the ID for s, assigning the next dense ID on first touch.
// fresh reports whether this call created the entry.
func (t *Table) Intern(s string) (id uint32, fresh bool) {
	if id, ok := t.ids[s]; ok {
		return id, false
	}
	id = uint32(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id, true
}

// ID is Intern discarding the freshness bit.
func (t *Table) ID(s string) uint32 {
	id, _ := t.Intern(s)
	return id
}

// Lookup returns the ID for s without interning it.
func (t *Table) Lookup(s string) (uint32, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// Str returns the string for a previously issued ID.
func (t *Table) Str(id uint32) string { return t.names[id] }

// Len returns the number of interned strings; IDs are exactly [0, Len).
func (t *Table) Len() int { return len(t.names) }

// Reset empties the table, keeping the storage of its map and names for
// reuse.
func (t *Table) Reset() {
	clear(t.ids)
	clear(t.names)
	t.names = t.names[:0]
}

// rmPromoteMin is the overlay size below which RM never merges: merging a
// handful of keys into a big snapshot would make inserts O(snapshot).
const rmPromoteMin = 32

// rmDirtyHitPromote is the floor on locked reads before a read-driven
// merge: a warm table whose writers have gone quiet must not leave hot
// keys behind the lock forever. The actual trigger also scales with the
// table (see Get) so each merge is amortized against the locked reads
// that asked for it — a flat trigger thrashes O(n) merges on insert-heavy
// workloads that re-read fresh entries.
const rmDirtyHitPromote = 256

// RM is a read-mostly concurrent map. Get first consults an immutable
// snapshot published through an atomic pointer — the steady-state path is
// one atomic load and one map probe, with no lock and no shared mutable
// cache line — and falls back to a mutex-guarded overlay only for keys
// written since the last merge. Set inserts into the overlay and merges it
// into a fresh snapshot geometrically (and after enough locked reads), so
// amortized insert cost is O(1) and the overlay stays a bounded fraction
// of the table.
//
// Snapshots are never mutated after publication, which is what makes the
// lock-free read sound; values must therefore be safe to share (everything
// stored here — signatures, distributions, sorted slices — is immutable by
// the package-wide read-only contract).
type RM[K comparable, V any] struct {
	snap atomic.Pointer[map[K]V]

	mu        sync.RWMutex
	dirty     map[K]V
	dirtyHits atomic.Int64
	count     atomic.Int64

	// Cap, when positive, bounds the total entry count: an insert at the
	// bound drops the whole table first (entries must be recomputable),
	// mirroring the wholesale-drop policy of the memo caches it replaces.
	cap int
}

// NewRM returns an empty read-mostly map; cap <= 0 means unbounded.
func NewRM[K comparable, V any](cap int) *RM[K, V] {
	m := &RM[K, V]{cap: cap, dirty: make(map[K]V)}
	empty := make(map[K]V)
	m.snap.Store(&empty)
	return m
}

// Get returns the value for k. Snapshot hits take no lock; overlay hits
// take a shared read lock, and once the locked-read traffic amounts to a
// multiple of the table size a merge is triggered — so merge work is
// amortized against the reads that needed it, and a quiet-writer table's
// hot overlay keys still migrate to the snapshot.
func (m *RM[K, V]) Get(k K) (V, bool) {
	if v, ok := (*m.snap.Load())[k]; ok {
		return v, true
	}
	m.mu.RLock()
	v, ok := m.dirty[k]
	nDirty := len(m.dirty)
	m.mu.RUnlock()
	if ok {
		hits := m.dirtyHits.Add(1)
		if hits >= rmDirtyHitPromote && hits >= int64(2*(len(*m.snap.Load())+nDirty)) {
			m.mu.Lock()
			m.promoteLocked()
			m.mu.Unlock()
		}
	}
	return v, ok
}

// Set stores v under k and reports whether the bound forced a wholesale
// drop. Racing writers of the same key are last-write-wins, matching the
// memo caches this replaces (racers compute equivalent values).
func (m *RM[K, V]) Set(k K, v V) (reset bool) {
	m.mu.Lock()
	snap := *m.snap.Load()
	_, inSnap := snap[k]
	_, inDirty := m.dirty[k]
	if m.cap > 0 && !inSnap && !inDirty && int(m.count.Load()) >= m.cap {
		empty := make(map[K]V)
		m.snap.Store(&empty)
		m.dirty = make(map[K]V)
		m.count.Store(0)
		reset = true
		snap = empty
	}
	if !inSnap && !inDirty {
		m.count.Add(1)
	}
	m.dirty[k] = v
	// An overwrite of a snapshot-resident key must publish immediately —
	// the overlay cannot shadow the snapshot on the lock-free read path.
	// Memo workloads only ever insert the canonical value once, so this
	// O(n) copy is essentially never taken there.
	//
	// Otherwise, geometric promotion: merge once the overlay has grown to
	// the snapshot's size (factor-2 growth), so total merge work over n
	// inserts stays ~2n map inserts. Promoting on a smaller overlay
	// fraction would re-copy the snapshot far more often, which dominates
	// insert-heavy churn phases (an exploration sweep cycling a capped
	// memo); the overlay a write-heavy phase leaves behind the mutex is
	// drained by the dirty-hit promotion as soon as readers arrive.
	if inSnap || (len(m.dirty) >= rmPromoteMin && len(m.dirty) >= len(snap)) {
		m.promoteLocked()
	}
	m.mu.Unlock()
	return reset
}

// promoteLocked publishes snapshot ∪ overlay as a fresh immutable snapshot.
// Callers hold mu exclusively.
func (m *RM[K, V]) promoteLocked() {
	if len(m.dirty) == 0 {
		// A racing reader already promoted between our threshold check and
		// taking the lock; don't copy the snapshot again for nothing.
		m.dirtyHits.Store(0)
		return
	}
	old := *m.snap.Load()
	merged := make(map[K]V, len(old)+len(m.dirty))
	for k, v := range old {
		merged[k] = v
	}
	for k, v := range m.dirty {
		merged[k] = v
	}
	m.snap.Store(&merged)
	m.dirty = make(map[K]V)
	m.dirtyHits.Store(0)
}

// Len returns the current entry count. It is O(1) — memo sites publish it
// to a gauge on every insert, so it must not walk either layer.
func (m *RM[K, V]) Len() int {
	return int(m.count.Load())
}

// Reset drops every entry.
func (m *RM[K, V]) Reset() {
	m.mu.Lock()
	empty := make(map[K]V)
	m.snap.Store(&empty)
	m.dirty = make(map[K]V)
	m.dirtyHits.Store(0)
	m.count.Store(0)
	m.mu.Unlock()
}
