package obs_test

// One clock per timed call: every kernel call and exploration is timed by
// one obs.Call, whose single duration must reach the trace span, the
// layer's process histogram and the job meter's phase row alike — on a
// completed call and on one a budget stops part-way.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// clockCase is one timed entry point of layer layer; run calls it on ctx
// under budget b (nil for a full run).
type clockCase struct {
	name  string
	layer obs.Layer
	run   func(ctx context.Context, b *resilience.Budget) error
}

func clockCases() []clockCase {
	walk := testaut.RandomWalk("w", 8, 0.5)
	random := &sched.Random{A: walk, Bound: 13}
	greedy := &sched.Greedy{A: walk, Bound: 13}
	return []clockCase{
		{"MeasureOpts", obs.LayerMeasure, func(ctx context.Context, b *resilience.Budget) error {
			_, err := sched.MeasureOpts(ctx, walk, random, 16, b, sched.Options{Workers: 4})
			return err
		}},
		{"SampleImageOpts", obs.LayerSample, func(ctx context.Context, b *resilience.Budget) error {
			_, err := sched.SampleImageOpts(ctx, walk, random, rng.New(7), 16, 400,
				func(f *psioa.Frag) string { return f.Key() }, b, sched.Options{Workers: 4})
			return err
		}},
		{"MeasureDAGOpts", obs.LayerDAG, func(ctx context.Context, b *resilience.Budget) error {
			_, err := sched.MeasureDAGOpts(ctx, walk, greedy, 16, b, sched.Options{})
			return err
		}},
		{"Walk", obs.LayerExplore, func(ctx context.Context, b *resilience.Budget) error {
			_, err := psioa.Walk(ctx, walk, 1000, b, nil)
			return err
		}},
	}
}

// TestOneClockEveryExit runs each case under a JSONL tracer and a meter,
// in full and stopped by a budget, and checks that the call produced one
// span pair, one observation of its "<layer>.us" histogram and one meter
// phase call, all carrying the same µs; and that the shard rows the
// kernels traced are the rows the meter holds.
func TestOneClockEveryExit(t *testing.T) {
	for _, tc := range clockCases() {
		for _, stopped := range []bool{false, true} {
			var b *resilience.Budget
			if stopped {
				b = resilience.NewBudget(4, 40, 0)
			}
			var buf bytes.Buffer
			j := obs.NewJSONL(&buf)
			prev := obs.SetTracer(j)
			m := &obs.Meter{}
			hist := obs.H(tc.layer.Hist())
			h0 := hist.Snapshot()
			err := tc.run(obs.WithMeter(context.Background(), m), b)
			obs.SetTracer(prev)
			h1 := hist.Snapshot()
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			name := tc.name
			if stopped {
				name += "/stopped"
				if !resilience.IsBudget(err) {
					t.Fatalf("%s: err = %v, want a budget stop", name, err)
				}
			} else if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			events, rerr := obs.ReadTrace(&buf)
			if rerr != nil {
				t.Fatal(rerr)
			}

			var begins, ends []obs.Event
			var shardEvents, shardItems, shardWall int64
			for _, e := range events {
				switch {
				case e.Kind == obs.KindSpanBegin && e.Name == tc.layer.String():
					begins = append(begins, e)
				case e.Kind == obs.KindSpanEnd && e.Name == tc.layer.String():
					ends = append(ends, e)
				case e.Kind == obs.KindShard:
					shardEvents++
					shardItems += e.N
					shardWall += e.Dur
				}
			}
			if len(begins) != 1 || len(ends) != 1 || begins[0].Span != ends[0].Span {
				t.Fatalf("%s: %d span.begin and %d span.end events, want one correlated pair", name, len(begins), len(ends))
			}
			dur := ends[0].Dur

			if n := h1.Count - h0.Count; n != 1 {
				t.Errorf("%s: %s gained %d observations, want 1", name, tc.layer.Hist(), n)
			}
			if got := int64(h1.Sum - h0.Sum); got != dur {
				t.Errorf("%s: %s observed %d µs, span says %d µs", name, tc.layer.Hist(), got, dur)
			}

			rep := m.Report()
			if len(rep.Phases) != 1 || rep.Phases[0].Name != tc.layer.String() || rep.Phases[0].Calls != 1 {
				t.Fatalf("%s: meter phases = %+v, want one %s call", name, rep.Phases, tc.layer)
			}
			if rep.Phases[0].WallUS != dur {
				t.Errorf("%s: meter phase wall %d µs, span dur_us %d", name, rep.Phases[0].WallUS, dur)
			}

			var levels, items, wall int64
			for _, sh := range rep.Shards {
				levels += sh.Levels
				items += sh.Items
				wall += sh.WallUS
			}
			if shardEvents != levels || shardItems != items || shardWall != wall {
				t.Errorf("%s: trace shard rows (n=%d items=%d wall=%d) differ from the meter's (n=%d items=%d wall=%d)",
					name, shardEvents, shardItems, shardWall, levels, items, wall)
			}
			if tc.layer != obs.LayerExplore && !stopped && levels == 0 {
				t.Errorf("%s: no shard rows reported", name)
			}
		}
	}
}
