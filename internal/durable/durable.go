// Package durable persists the engine's content-addressed results and the
// daemon's job lifecycle across process crashes: a SIGKILL'd dsed (or a
// cluster worker) restarts with its warm store intact and with every
// accepted-but-unfinished async job re-enqueued, so no admitted work is
// ever lost and recovered results are byte-identical to fresh computation.
//
// Two cooperating pieces (see docs/DURABILITY.md for the on-disk formats
// and the full recovery semantics):
//
//   - DiskStore is a disk-backed content-addressed store: one file per key,
//     written atomically (temp file, then rename), self-checksummed with
//     SHA-256, bounded by a deterministic LRU eviction index. Entries that
//     fail validation — truncated, bit-flipped, or torn — are quarantined
//     (moved aside, never served), and the caller recomputes. It
//     implements engine.Blobs, and dsed layers it under the cache's memory
//     view with engine.Tiered, so memory stays the fast path and the disk
//     tier is consulted only on memory misses and filled on every store put.
//
//   - Journal is a write-ahead job journal: append-only JSONL records of
//     each async job's lifecycle (accepted → running → done/failed, with
//     the resilience error class on failures). The Manager implements
//     engine.JournalSink over it and, on restart, replays the journal:
//     terminal jobs are restored as records, completed results are served
//     from the store (byte-identical), and accepted-but-unfinished jobs are
//     re-enqueued — unless their result is already in the store, in which
//     case the idempotency guard serves it instead of recomputing.
//
// What is never persisted mirrors the engine cache's rules (PR-4): partial
// results (budget-degraded simulate prefixes), run-report telemetry
// (stripped before publication, a per-run account rather than content),
// and synchronous jobs (the requester holds the only reference; a crash
// already surfaces to them as a failed request).
package durable

import "repro/internal/obs"

// Observability instruments. cluster.store.disk_hits is the acceptance
// signal that restarts are served from disk (`make durable-smoke`);
// cluster.store.corrupt counts entries quarantined by validation;
// cluster.store.recovered counts results restored to a terminal job record
// from the store during journal replay (including the idempotency guard's
// served-not-recomputed path). The dsed.journal.* counters account the
// write-ahead journal: records appended, records replayed at startup, and
// jobs re-enqueued for recomputation.
var (
	cDiskHits       = obs.C("cluster.store.disk_hits")
	cDiskCorrupt    = obs.C("cluster.store.corrupt")
	cDiskRecovered  = obs.C("cluster.store.recovered")
	cJournalAppends = obs.C("dsed.journal.appended")
	cJournalReplays = obs.C("dsed.journal.replayed")
	cJournalRequeue = obs.C("dsed.journal.requeued")
)
