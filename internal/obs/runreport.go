package obs

import (
	"fmt"
	"strings"
	"time"
)

// ShardStat is the per-shard work account of a parallel kernel, aggregated
// over every level the shard participated in. Items is the number of
// frontier items (or samples) the shard expanded, Width the total span
// width it was handed, WallUS its busy wall time, and BarrierWaitUS the
// time it sat at level barriers while slower shards finished — the direct
// measurement of shard imbalance.
type ShardStat struct {
	Shard         int   `json:"shard"`
	Levels        int64 `json:"levels"`
	Items         int64 `json:"items"`
	Width         int64 `json:"width"`
	WallUS        int64 `json:"wall_us"`
	BarrierWaitUS int64 `json:"barrier_wait_us"`
}

// PhaseStat is one named phase of a run's wall-time breakdown, with
// bucket-resolution quantiles of the run's own call durations.
type PhaseStat struct {
	Name   string  `json:"name"`
	Calls  int64   `json:"calls"`
	WallUS int64   `json:"wall_us"`
	P50US  float64 `json:"p50_us,omitempty"`
	P95US  float64 `json:"p95_us,omitempty"`
	P99US  float64 `json:"p99_us,omitempty"`
}

// RunReport is the structured account of one verification job: where the
// states, transitions, cache hits and wall time went. It is attached to
// engine job results, printed by dsecheck -explain and returned in dsed
// job responses. Everything it measures comes from the job's own Meter,
// so it is exact however many jobs run concurrently.
type RunReport struct {
	Kind         string `json:"kind,omitempty"`
	WallUS       int64  `json:"wall_us"`
	States       int64  `json:"states"`
	Transitions  int64  `json:"transitions"`
	DepthReached int    `json:"depth_reached"`

	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions,omitempty"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`

	// BudgetStates/BudgetTransitions echo the limits the job ran under
	// (zero = unlimited); States/Transitions are the spend against them.
	BudgetStates      int64 `json:"budget_states,omitempty"`
	BudgetTransitions int64 `json:"budget_transitions,omitempty"`

	Workers int         `json:"workers,omitempty"`
	Levels  int64       `json:"levels,omitempty"`
	Shards  []ShardStat `json:"shards,omitempty"`
	// ShardImbalance is max/mean items per shard (1 = perfectly balanced,
	// 0 = no parallel levels ran).
	ShardImbalance float64 `json:"shard_imbalance,omitempty"`
	// BarrierWaitUS is the summed barrier wait across shards — the wall
	// time lost to imbalance rather than contention.
	BarrierWaitUS int64 `json:"barrier_wait_us,omitempty"`
	// CacheLockWaitUS is the job's summed striped-cache lock wait
	// (collected only while tracing is enabled; zero otherwise).
	CacheLockWaitUS int64 `json:"cache_lock_wait_us,omitempty"`

	Phases []PhaseStat `json:"phases,omitempty"`
}

// Imbalance computes max/mean items per shard over ss; 0 with no shards.
func Imbalance(ss []ShardStat) float64 {
	if len(ss) == 0 {
		return 0
	}
	var max, sum int64
	for _, s := range ss {
		sum += s.Items
		if s.Items > max {
			max = s.Items
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ss))
	return float64(max) / mean
}

// String renders the report as aligned human-readable text (the body of
// dsecheck -explain).
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report (%s): wall=%s\n", orDash(r.Kind), usDur(r.WallUS))
	fmt.Fprintf(&b, "  states      %-12d transitions %-12d depth=%d\n", r.States, r.Transitions, r.DepthReached)
	if r.BudgetStates > 0 || r.BudgetTransitions > 0 {
		fmt.Fprintf(&b, "  budget      states=%d transitions=%d\n", r.BudgetStates, r.BudgetTransitions)
	}
	fmt.Fprintf(&b, "  cache       hits=%d misses=%d evictions=%d hit-ratio=%.3f\n",
		r.CacheHits, r.CacheMisses, r.CacheEvictions, r.CacheHitRatio)
	if len(r.Shards) > 0 {
		fmt.Fprintf(&b, "  shards      workers=%d levels=%d imbalance(max/mean)=%.3f barrier-wait=%s",
			r.Workers, r.Levels, r.ShardImbalance, usDur(r.BarrierWaitUS))
		if r.CacheLockWaitUS > 0 {
			fmt.Fprintf(&b, " cache-lock-wait=%s", usDur(r.CacheLockWaitUS))
		}
		b.WriteByte('\n')
		for _, s := range r.Shards {
			fmt.Fprintf(&b, "    shard %-3d levels=%-5d items=%-10d width=%-10d wall=%-10s barrier-wait=%s\n",
				s.Shard, s.Levels, s.Items, s.Width, usDur(s.WallUS), usDur(s.BarrierWaitUS))
		}
	}
	if len(r.Phases) > 0 {
		b.WriteString("  phases\n")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "    %-24s calls=%-8d wall=%-10s p50≤%s p95≤%s p99≤%s\n",
				p.Name, p.Calls, usDur(p.WallUS), usDur(int64(p.P50US)), usDur(int64(p.P95US)), usDur(int64(p.P99US)))
		}
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func usDur(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(time.Microsecond).String()
}
