// Package cluster scales dsed horizontally: a Coordinator shards
// verification work across N worker backends and merges their results into
// reports byte-identical to a single local run.
//
// The design follows the engine's determinism discipline (see
// docs/CLUSTER.md):
//
//   - Backend is the small surface a worker exposes — run a job, answer a
//     health probe, and expose its content-addressed result store (an
//     engine.Blobs). Three implementations ship: LocalBackend (an
//     in-process engine.Runner), RemoteBackend (dsed's HTTP job API behind
//     a mutex-guarded client with automatic redial/backoff), and
//     MockBackend (scripted failures for tests).
//   - The Coordinator shards a check job's (env, scheduler) sweep by
//     environment — the outer quantifier of Def 4.12, whose per-env pair
//     blocks are independent — assigning each shard to a worker by
//     rendezvous (HRW) hashing of its content fingerprint, so membership
//     changes move only the keys owned by the nodes that changed.
//     Sub-jobs launch in index order and merge in the canonical
//     (Env, Sched, Matched) pair sort of core.Report, which makes the
//     merged report indistinguishable from the sequential single-node run.
//   - Every shard result is published to the content-addressed store of the
//     node that computed it, keyed by the sub-job fingerprint. Before
//     computing a shard the coordinator consults the stores (assigned node
//     first, then peers), so one node's exploration is every node's warm
//     hit — including across membership changes, where a moved key is
//     served by its previous owner and re-warmed on the new one.
//
// Worker failures re-route: a transport-level failure (or a worker shedding
// load with 503) marks the node down and re-runs rendezvous hashing among
// the survivors; deterministic job errors are returned as-is. With every
// worker down, Run fails fast with ErrNoWorkers.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Observability instruments. cluster.remote.hits counts shard results
// served from a node's content-addressed store instead of recomputed — the
// acceptance signal that exploration travels between nodes (E22, `make
// cluster-smoke`). cluster.remote.misses counts consultations that found no
// store entry anywhere.
var (
	cRemoteHits     = obs.C("cluster.remote.hits")
	cRemoteMiss     = obs.C("cluster.remote.misses")
	cDispatched     = obs.C("cluster.jobs.dispatched")
	cRerouted       = obs.C("cluster.jobs.rerouted")
	cWorkersDown    = obs.C("cluster.workers.down")
	cWorkersRevived = obs.C("cluster.workers.revived")
	cStorePuts      = obs.C("cluster.store.puts")
)

// ErrNoWorkers reports a cluster operation with no live worker left to run
// it: every backend is marked down (or the coordinator has none). Typed so
// callers can distinguish a dead cluster from a failing job.
var ErrNoWorkers = errors.New("cluster: no live workers")

// Backend is one verification node. Implementations must be safe for
// concurrent use: the coordinator runs shards, health probes and store
// lookups from multiple goroutines.
type Backend interface {
	// ID returns the node's stable identity (the worker_id it stamps on
	// results). Coordinator membership is keyed by it, so IDs must be
	// unique within a cluster.
	ID() string
	// Run executes one job to completion. Transport-level failures (node
	// unreachable, connection dropped, load shed) must be distinguishable
	// from deterministic job errors via IsUnreachable / resilience
	// classification, so the coordinator knows when re-routing can help.
	Run(ctx context.Context, job engine.Job) (*engine.Result, error)
	// Health probes liveness; nil means the node can accept work.
	Health(ctx context.Context) error
	// Store returns the node's content-addressed result store. A miss
	// wraps engine.ErrNotFound; an unreachable node fails with
	// UnreachableError, like Run.
	Store() engine.Blobs
	// Stats returns the node's cumulative job traffic counters; the
	// coordinator fills in the store counters, which it counts itself.
	Stats() BackendStats
}

// BackendStats are one backend's cumulative counters, surfaced per worker
// in the coordinator's /v1/debug section. The store counters count the
// coordinator's own calls to the node's store: gets, gets that returned
// bytes, and puts.
type BackendStats struct {
	Jobs      int64 `json:"jobs"`
	Errors    int64 `json:"errors"`
	StoreGets int64 `json:"store_gets"`
	StoreHits int64 `json:"store_hits"`
	StorePuts int64 `json:"store_puts"`
	Redials   int64 `json:"redials,omitempty"`
}

// UnreachableError marks a transport-level backend failure: the node could
// not be reached or dropped the connection, as opposed to the node running
// the job and reporting a deterministic error. The coordinator re-routes
// shards on it.
type UnreachableError struct {
	// Node is the backend ID.
	Node string
	// Err is the underlying transport error.
	Err error
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("cluster: worker %s unreachable: %v", e.Node, e.Err)
}

func (e *UnreachableError) Unwrap() error { return e.Err }

// Transient implements resilience.IsTransient: a fresh attempt against the
// same (redialed) or another node can succeed.
func (e *UnreachableError) Transient() bool { return true }

// IsUnreachable reports whether err marks a transport-level backend
// failure (see UnreachableError).
func IsUnreachable(err error) bool {
	var ue *UnreachableError
	return errors.As(err, &ue)
}
