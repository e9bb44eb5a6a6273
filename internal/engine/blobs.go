package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrNotFound reports a key with no valid entry in a Blobs store: never
// written, evicted, or quarantined as corrupt. Every tier classifies its
// misses with it (durable.ErrNotFound and durable.ErrCorrupt match it, and
// a remote 404 wraps it), so callers tell "recompute" apart from transport
// failures with one errors.Is.
var ErrNotFound = errors.New("engine: not found")

// Blobs is a content-addressed byte store: the canonical bytes of a result
// under its job fingerprint. Three things implement it — the memory view of
// a Cache (Cache.Blobs), a durable.DiskStore, and a cluster worker's
// GET/PUT /v1/store/{key} — and Tiered layers them. Implementations are
// safe for concurrent use. Put never aliases the caller's buffer; bytes
// returned by Get are shared and must be treated as read-only.
type Blobs interface {
	Get(ctx context.Context, key string) ([]byte, error)
	Put(ctx context.Context, key string, data []byte) error
}

// rawPrefix namespaces the memory view's entries inside the striped LRU so
// they can never collide with the typed explore/measure/fdist memo keys:
// raw keys start with the printable byte 'r', typed memo keys with a
// control byte.
const rawPrefix = "raw|"

// Blobs returns the memory view of the cache: content-addressed bytes kept
// in the same striped LRU as the kernel memos, under their own namespace.
// Lookups count against the owning shard's hit/miss counters like any
// other access, so store traffic stays visible in ShardStats and the
// engine.cache.* metrics. A nil cache's view misses every Get and drops
// every Put.
func (c *Cache) Blobs() Blobs { return memBlobs{c} }

type memBlobs struct{ c *Cache }

func (m memBlobs) Get(_ context.Context, key string) ([]byte, error) {
	if m.c != nil {
		if v, ok := m.c.Get(rawPrefix + key); ok {
			return v.([]byte), nil
		}
	}
	return nil, fmt.Errorf("engine: %q: %w", key, ErrNotFound)
}

func (m memBlobs) Put(_ context.Context, key string, data []byte) error {
	if m.c != nil {
		m.c.Put(rawPrefix+key, append([]byte(nil), data...))
	}
	return nil
}

// Tiered layers a fast store over a slow one. Get falls through to slow on
// a fast miss and promotes what it finds, so the next lookup is a fast hit.
// Put writes through: the fast write decides the result, and a slow-tier
// failure degrades durability, not availability.
func Tiered(fast, slow Blobs) Blobs { return tiered{fast, slow} }

type tiered struct{ fast, slow Blobs }

func (t tiered) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := t.fast.Get(ctx, key)
	if err == nil || !errors.Is(err, ErrNotFound) {
		return data, err
	}
	if data, err := t.slow.Get(ctx, key); err == nil {
		// A failed promotion only costs the next lookup a slow read.
		_ = t.fast.Put(ctx, key, data)
		return data, nil
	}
	return nil, err
}

func (t tiered) Put(ctx context.Context, key string, data []byte) error {
	if err := t.fast.Put(ctx, key, data); err != nil {
		return err
	}
	// The entry is served from the fast tier either way; a slow-tier
	// failure loses it only across a restart.
	_ = t.slow.Put(ctx, key, data)
	return nil
}

// EncodeResult is the one publication rule for stored results: the run
// report is stripped (a per-run account, not content), and partial
// simulate prefixes are never stored, mirroring the cache's
// partials-are-never-cached rule. ok is false for results that are not
// stored: nil, partial, or unmarshalable (e.g. +Inf distances).
func EncodeResult(res *Result) (data []byte, ok bool) {
	if res == nil || (res.Simulate != nil && res.Simulate.Partial) {
		return nil, false
	}
	stored := *res
	stored.Report = nil
	data, err := json.Marshal(&stored)
	return data, err == nil
}

// DecodeResult is EncodeResult's inverse for a job of the given kind. It
// returns nil unless data decodes to a result whose Kind is that kind, so a
// foreign or empty entry under a job's fingerprint ({} or null, say, PUT by
// any peer) reads as a miss and the job is recomputed.
func DecodeResult(data []byte, kind string) *Result {
	var res Result
	if kind == "" || json.Unmarshal(data, &res) != nil || res.Kind != kind {
		return nil
	}
	return &res
}
