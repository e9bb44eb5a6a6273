package obs

import (
	"context"
	"sync"
	"sync/atomic"
)

// Phase names a kernel family whose calls a Meter times.
type Phase int

// The kernel phases, in run-report order.
const (
	PhaseMeasure Phase = iota // sched.measure: tree expansion
	PhaseSample               // sched.sample: Monte-Carlo sampling
	PhaseDAG                  // sched.measure.dag: state-collapsed propagation
	PhaseExplore              // psioa.explore: bounded reachability analysis
	numPhases
)

var phaseNames = [numPhases]string{"sched.measure", "sched.sample", "sched.measure.dag", "psioa.explore"}

// Meter is the work account of one job. engine.Runner.Run puts one in the
// job's context (WithMeter), and every layer that receives the context
// charges it directly: resilience checkpoints the states and transitions
// they flush, the engine cache its hits, misses, evictions and lock wait,
// and the measure kernels their levels, per-shard rows, depth and call
// times. A meter is charged by its own job only, so its account is exact
// under any amount of concurrent traffic. A nil *Meter is valid: every
// charging method is then a no-op.
type Meter struct {
	states, trans                       atomic.Int64
	hits, misses, evictions, lockWaitUS atomic.Int64

	mu     sync.Mutex // guards levels, depth and shards
	levels int64
	depth  int
	shards []ShardStat

	phases [numPhases]Histogram // per-call wall µs of each kernel family
}

type meterKey struct{}

// WithMeter returns a copy of ctx that carries m.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// MeterFrom returns the meter ctx carries: nil for a nil ctx or a ctx
// without one.
func MeterFrom(ctx context.Context) *Meter {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

// Work charges explored states and expanded transitions.
func (m *Meter) Work(states, trans int64) {
	if m == nil {
		return
	}
	m.states.Add(states)
	m.trans.Add(trans)
}

// Cache charges memoization-cache traffic: lookups that hit or missed,
// entries evicted, and µs spent waiting for a stripe lock.
func (m *Meter) Cache(hits, misses, evictions, lockWaitUS int64) {
	if m == nil {
		return
	}
	m.hits.Add(hits)
	m.misses.Add(misses)
	m.evictions.Add(evictions)
	m.lockWaitUS.Add(lockWaitUS)
}

// Level folds one kernel level into the per-shard rows. widths[i] is the
// index-span width handed to shard i, items[i] the frontier items it
// expanded, wallUS[i] its busy time. A shard's barrier wait at this level
// is the gap to the slowest shard of the level (max wall - own wall): the
// wall time lost to work imbalance, excluding the single-threaded merge
// that follows the barrier. Rows are keyed by shard index, so shard i of
// every level and every call accumulates into one row.
func (m *Meter) Level(widths, items, wallUS []int64) {
	if m == nil {
		return
	}
	var slowest int64
	for _, w := range wallUS {
		slowest = max(slowest, w)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.levels++
	for i := range items {
		for len(m.shards) <= i {
			m.shards = append(m.shards, ShardStat{Shard: len(m.shards)})
		}
		sh := &m.shards[i]
		sh.Levels++
		sh.Items += items[i]
		sh.Width += widths[i]
		sh.WallUS += wallUS[i]
		sh.BarrierWaitUS += slowest - wallUS[i]
	}
}

// Depth raises the depth high-water mark to d.
func (m *Meter) Depth(d int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.depth = max(m.depth, d)
	m.mu.Unlock()
}

// Call records one kernel call of phase p that took wallUS.
func (m *Meter) Call(p Phase, wallUS int64) {
	if m == nil {
		return
	}
	m.phases[p].Observe(float64(wallUS))
}

// Report returns the RunReport fields the meter measured: work, cache
// traffic, depth, levels, per-shard rows with their imbalance and summed
// barrier wait, and one phase row per kernel family that ran, with
// quantiles of this job's own call durations. The caller fills in the
// job's identity, wall time, workers and budget limits.
func (m *Meter) Report() *RunReport {
	r := &RunReport{
		States:          m.states.Load(),
		Transitions:     m.trans.Load(),
		CacheHits:       m.hits.Load(),
		CacheMisses:     m.misses.Load(),
		CacheEvictions:  m.evictions.Load(),
		CacheLockWaitUS: m.lockWaitUS.Load(),
	}
	if tot := r.CacheHits + r.CacheMisses; tot > 0 {
		r.CacheHitRatio = float64(r.CacheHits) / float64(tot)
	}
	m.mu.Lock()
	r.DepthReached, r.Levels = m.depth, m.levels
	r.Shards = append([]ShardStat(nil), m.shards...)
	m.mu.Unlock()
	r.ShardImbalance = Imbalance(r.Shards)
	for _, s := range r.Shards {
		r.BarrierWaitUS += s.BarrierWaitUS
	}
	for p := range m.phases {
		if s := m.phases[p].Snapshot(); s.Count > 0 {
			r.Phases = append(r.Phases, PhaseStat{Name: phaseNames[p], Calls: s.Count, WallUS: int64(s.Sum),
				P50US: s.P50, P95US: s.P95, P99US: s.P99})
		}
	}
	return r
}
