package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// Coordinator shards jobs across a fixed set of backends and merges the
// results byte-identically to a single-node run (see the package comment
// for the determinism argument). It is safe for concurrent use.
type Coordinator struct {
	backends []Backend
	// Retry drives per-shard retries of transient failures on the
	// assigned node before re-routing is considered (RemoteBackend has
	// its own transport-level retry underneath; this one also covers
	// transient job faults on local and mock backends). The zero value
	// means a single attempt.
	Retry resilience.Backoff

	// stores counts the coordinator's calls to each worker's store; the
	// map is fixed at construction.
	stores map[string]*storeTraffic

	mu   sync.Mutex
	down map[string]bool

	dispatched atomic.Int64
	rerouted   atomic.Int64
	storeHits  atomic.Int64
	storeMiss  atomic.Int64
}

// NewCoordinator builds a coordinator over backends. Backend order is the
// tie-break order for diagnostics only — shard placement depends solely on
// the (backend ID, shard key) rendezvous scores, so two coordinators over
// the same IDs route identically whatever order they list them in.
func NewCoordinator(backends ...Backend) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, ErrNoWorkers
	}
	stores := make(map[string]*storeTraffic, len(backends))
	for _, b := range backends {
		if stores[b.ID()] != nil {
			return nil, fmt.Errorf("cluster: duplicate worker id %q", b.ID())
		}
		stores[b.ID()] = &storeTraffic{}
	}
	return &Coordinator{backends: backends, stores: stores, down: make(map[string]bool)}, nil
}

// storeTraffic is one worker's store gets, gets that returned bytes, and
// puts, as the coordinator made them.
type storeTraffic struct{ gets, hits, puts atomic.Int64 }

// ShardResult records where one shard of a job ran and how it was served.
type ShardResult struct {
	// Key is the shard's content fingerprint (the store key).
	Key string `json:"key"`
	// Env is the environment reference the shard covers ("" for unsharded
	// jobs).
	Env string `json:"env,omitempty"`
	// Worker is the node that served the shard: the store node on a store
	// hit, else the node that computed it.
	Worker string `json:"worker"`
	// FromStore reports the shard was served from a content-addressed
	// store instead of recomputed.
	FromStore bool `json:"from_store,omitempty"`
	// Rerouted counts how many times the shard moved to a surviving node
	// after a transport failure or load shed.
	Rerouted int `json:"rerouted,omitempty"`
}

// RunResult is a coordinator run: the merged engine result plus per-shard
// placement. For sharded check jobs Result.Report (run telemetry) is nil —
// kernel telemetry is a per-node account and does not merge.
type RunResult struct {
	*engine.Result
	Shards []ShardResult `json:"shards"`
}

// WorkerStatus is one backend's view in CoordinatorStats.
type WorkerStatus struct {
	ID    string       `json:"id"`
	Down  bool         `json:"down,omitempty"`
	Stats BackendStats `json:"stats"`
}

// CoordinatorStats is the coordinator's cumulative account, surfaced under
// "cluster" in the coordinator daemon's /v1/debug.
type CoordinatorStats struct {
	Workers     []WorkerStatus `json:"workers"`
	Dispatched  int64          `json:"dispatched"`
	Rerouted    int64          `json:"rerouted"`
	StoreHits   int64          `json:"store_hits"`
	StoreMisses int64          `json:"store_misses"`
}

// Stats snapshots the coordinator and its backends.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoordinatorStats{
		Dispatched:  c.dispatched.Load(),
		Rerouted:    c.rerouted.Load(),
		StoreHits:   c.storeHits.Load(),
		StoreMisses: c.storeMiss.Load(),
	}
	for _, b := range c.backends {
		bs, t := b.Stats(), c.stores[b.ID()]
		bs.StoreGets, bs.StoreHits, bs.StorePuts = t.gets.Load(), t.hits.Load(), t.puts.Load()
		st.Workers = append(st.Workers, WorkerStatus{ID: b.ID(), Down: c.down[b.ID()], Stats: bs})
	}
	return st
}

// Backends returns the configured backends in order.
func (c *Coordinator) Backends() []Backend { return append([]Backend(nil), c.backends...) }

// liveIDs returns the IDs of the backends not marked down, in configured
// order, excluding any in skip.
func (c *Coordinator) liveIDs(skip map[string]bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.backends))
	for _, b := range c.backends {
		if !c.down[b.ID()] && !skip[b.ID()] {
			ids = append(ids, b.ID())
		}
	}
	return ids
}

func (c *Coordinator) backend(id string) Backend {
	for _, b := range c.backends {
		if b.ID() == id {
			return b
		}
	}
	return nil
}

func (c *Coordinator) markDown(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down[id] {
		c.down[id] = true
		cWorkersDown.Inc()
	}
}

// revive re-probes nodes marked down and brings responders back, returning
// how many rejoined. Run calls it once up front, so a restarted worker
// rejoins on the next job; StartReprobe calls it in the background, so an
// idle cluster notices the revival too. A node marked down is treated as a
// transient blip until proven otherwise — it stays in the probe set
// forever, never permanently evicted.
func (c *Coordinator) revive(ctx context.Context) int {
	c.mu.Lock()
	var downed []string
	for id, d := range c.down {
		if d {
			downed = append(downed, id)
		}
	}
	c.mu.Unlock()
	sort.Strings(downed)
	revived := 0
	for _, id := range downed {
		if b := c.backend(id); b != nil && b.Health(ctx) == nil {
			c.mu.Lock()
			delete(c.down, id)
			c.mu.Unlock()
			revived++
			cWorkersRevived.Inc()
		}
	}
	return revived
}

// downCount returns the number of nodes currently marked down.
func (c *Coordinator) downCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.down {
		if d {
			n++
		}
	}
	return n
}

// StartReprobe launches a background loop that re-probes downed workers on
// a jittered backoff cadence, so a cluster with no job traffic still
// notices a revived worker. The delay follows b (resilience.Backoff
// defaults apply): it grows while the same outage persists and resets to
// the base whenever a probe revives something — or when nothing is down,
// keeping the idle loop cheap (revive with an empty down set does no I/O).
// The loop exits when ctx terminates; it returns immediately.
func (c *Coordinator) StartReprobe(ctx context.Context, b resilience.Backoff) {
	go func() {
		stream := rng.New(b.Seed)
		retry := 1
		for {
			t := time.NewTimer(b.Delay(retry, stream))
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			if c.revive(ctx) > 0 || c.downCount() == 0 {
				retry = 1
			} else if retry < 16 {
				retry++
			}
		}
	}()
}

// reroutable reports whether moving the shard to another node can help:
// transport failures (node gone) and load sheds (node saturated) yes;
// deterministic job errors, deadlines and budget trips no — they would
// fail identically anywhere.
func reroutable(err error) bool {
	return IsUnreachable(err) || errors.Is(err, resilience.ErrQueueFull)
}

// Run executes job on the cluster. Check jobs quantifying over more than
// one environment are sharded per environment; everything else routes as a
// single shard. The merged report is byte-identical to a single-node run.
func (c *Coordinator) Run(ctx context.Context, job engine.Job) (*RunResult, error) {
	c.revive(ctx)
	if job.Kind == engine.KindCheck && job.Check != nil && len(job.Check.Envs) > 1 {
		return c.runSharded(ctx, job)
	}
	res, sh, err := c.runShard(ctx, job, "")
	if err != nil {
		return nil, err
	}
	return &RunResult{Result: res, Shards: []ShardResult{sh}}, nil
}

// runSharded splits a multi-environment check per environment — the outer
// quantifier of Def 4.12, whose per-env pair blocks are independent —
// launches the shards in index order, and merges in the canonical
// (Env, Sched, Matched) order of core.Report.
func (c *Coordinator) runSharded(ctx context.Context, job engine.Job) (*RunResult, error) {
	envs := job.Check.Envs
	results := make([]*engine.Result, len(envs))
	shards := make([]ShardResult, len(envs))
	errs := make([]error, len(envs))
	var wg sync.WaitGroup
	for i, env := range envs {
		sub := job
		cs := *job.Check
		cs.Envs = []string{env}
		sub.Check = &cs
		wg.Add(1)
		go func(i int, env string, sub engine.Job) {
			defer wg.Done()
			results[i], shards[i], errs[i] = c.runShard(ctx, sub, env)
		}(i, env, sub)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := &core.Report{Holds: true}
	for _, res := range results {
		if res.Check == nil {
			return nil, fmt.Errorf("cluster: shard returned no check report")
		}
		merged.Pairs = append(merged.Pairs, res.Check.Pairs...)
	}
	// Recompute the aggregates exactly as core.Report.assemble does: Holds
	// is the conjunction over pairs, MaxDist the max over non-infinite
	// distances, and the pair order the canonical (Env, Sched, Matched)
	// sort — so merging shard reports commutes with computing the report
	// in one piece.
	for _, p := range merged.Pairs {
		if !p.OK {
			merged.Holds = false
		}
		if p.Dist > merged.MaxDist && !math.IsInf(p.Dist, 1) {
			merged.MaxDist = p.Dist
		}
	}
	sort.Slice(merged.Pairs, func(i, j int) bool {
		pi, pj := merged.Pairs[i], merged.Pairs[j]
		if pi.Env != pj.Env {
			return pi.Env < pj.Env
		}
		if pi.Sched != pj.Sched {
			return pi.Sched < pj.Sched
		}
		return pi.Matched < pj.Matched
	})
	return &RunResult{
		Result: &engine.Result{Kind: engine.KindCheck, Check: merged},
		Shards: shards,
	}, nil
}

// runShard serves one shard: consult the content-addressed stores
// (rendezvous owner first, then peers in configured order), and on a miss
// compute on the owner, re-routing to survivors on transport failures and
// load sheds. env labels the shard for diagnostics.
func (c *Coordinator) runShard(ctx context.Context, job engine.Job, env string) (*engine.Result, ShardResult, error) {
	key := job.Fingerprint()
	sh := ShardResult{Key: key, Env: env}
	cDispatched.Inc()
	c.dispatched.Add(1)

	if res, node := c.storeLookup(ctx, key, job.Kind); res != nil {
		cRemoteHits.Inc()
		c.storeHits.Add(1)
		sh.Worker, sh.FromStore = node, true
		return res, sh, nil
	}
	cRemoteMiss.Inc()
	c.storeMiss.Add(1)

	tried := make(map[string]bool)
	var lastErr error
	for {
		live := c.liveIDs(tried)
		if len(live) == 0 {
			if lastErr != nil {
				return nil, sh, fmt.Errorf("%w (last: %v)", ErrNoWorkers, lastErr)
			}
			return nil, sh, ErrNoWorkers
		}
		id := live[pickHRW(live, key)]
		b := c.backend(id)
		var res *engine.Result
		err := resilience.Retry(ctx, c.Retry, func() error {
			var e error
			res, e = b.Run(ctx, job)
			return e
		})
		if err == nil {
			sh.Worker = id
			c.storePublish(ctx, b, key, res)
			return res, sh, nil
		}
		if !reroutable(err) {
			return nil, sh, err
		}
		lastErr = err
		if IsUnreachable(err) {
			c.markDown(id)
		} else {
			// Load shed: the node is alive, just saturated. Skip it for
			// this shard without declaring it dead.
			tried[id] = true
		}
		sh.Rerouted++
		cRerouted.Inc()
		c.rerouted.Add(1)
	}
}

// storeLookup consults the shard's rendezvous owner first, then the
// remaining live nodes in configured order. A hit from any node that
// decodes as a result of the job's kind is authoritative: entries are
// content-addressed by the full job fingerprint, so byte-identity cannot
// depend on which node answered.
func (c *Coordinator) storeLookup(ctx context.Context, key, kind string) (*engine.Result, string) {
	live := c.liveIDs(nil)
	if len(live) == 0 {
		return nil, ""
	}
	order := make([]string, 0, len(live))
	owner := live[pickHRW(live, key)]
	order = append(order, owner)
	for _, id := range live {
		if id != owner {
			order = append(order, id)
		}
	}
	for _, id := range order {
		c.stores[id].gets.Add(1)
		data, err := c.backend(id).Store().Get(ctx, key)
		if err != nil {
			if IsUnreachable(err) {
				c.markDown(id)
			}
			continue
		}
		c.stores[id].hits.Add(1)
		if res := engine.DecodeResult(data, kind); res != nil {
			return res, id
		}
	}
	return nil, ""
}

// storePublish writes the shard result to the store of the node that
// computed it, by engine.EncodeResult's rule (run telemetry stripped,
// partial and unmarshalable results skipped — the shard still returns
// normally).
func (c *Coordinator) storePublish(ctx context.Context, b Backend, key string, res *engine.Result) {
	data, ok := engine.EncodeResult(res)
	if !ok {
		return
	}
	c.stores[b.ID()].puts.Add(1)
	if b.Store().Put(ctx, key, data) == nil {
		cStorePuts.Inc()
	}
}
