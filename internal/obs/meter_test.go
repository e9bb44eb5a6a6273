package obs_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestMeterContext checks that a meter rides in a context and that a nil
// or meterless context carries none.
func TestMeterContext(t *testing.T) {
	m := &obs.Meter{}
	if got := obs.MeterFrom(obs.WithMeter(context.Background(), m)); got != m {
		t.Errorf("MeterFrom(WithMeter(m)) = %p, want %p", got, m)
	}
	if obs.MeterFrom(nil) != nil || obs.MeterFrom(context.Background()) != nil {
		t.Error("a nil or meterless context returned a meter")
	}
	var none *obs.Meter // every charging method is a no-op on nil
	none.Work(1, 1)
	none.Cache(1, 1, 1, 1)
	none.ChargeLevel(3, []int64{1}, []int64{1}, []int64{1})
	none.ChargePhase(obs.LayerMeasure, 5)
}

// TestMeterReport checks that the report adds up what was charged: work,
// cache traffic, per-shard rows with barrier wait, the deepest level as
// the depth, and one phase row per layer in report order.
func TestMeterReport(t *testing.T) {
	m := &obs.Meter{}
	m.Work(10, 20)
	m.Work(5, 0)
	m.Cache(3, 1, 0, 7)
	m.Cache(0, 0, 2, 0)
	m.ChargeLevel(4, []int64{4, 4}, []int64{4, 2}, []int64{30, 10})
	m.ChargeLevel(2, []int64{2}, []int64{2}, []int64{5})
	m.ChargePhase(obs.LayerDAG, 100)
	m.ChargePhase(obs.LayerMeasure, 40)
	m.ChargePhase(obs.LayerMeasure, 60)
	r := m.Report()
	want := &obs.RunReport{
		States: 15, Transitions: 20, DepthReached: 4,
		CacheHits: 3, CacheMisses: 1, CacheEvictions: 2, CacheHitRatio: 0.75, CacheLockWaitUS: 7,
		Levels: 2,
		Shards: []obs.ShardStat{
			{Shard: 0, Levels: 2, Items: 6, Width: 6, WallUS: 35},
			{Shard: 1, Levels: 1, Items: 2, Width: 4, WallUS: 10, BarrierWaitUS: 20},
		},
		ShardImbalance: 1.5,
		BarrierWaitUS:  20,
		Phases: []obs.PhaseStat{
			{Name: "sched.measure", Calls: 2, WallUS: 100, P50US: 64, P95US: 64, P99US: 64},
			{Name: "sched.measure.dag", Calls: 1, WallUS: 100, P50US: 128, P95US: 128, P99US: 128},
		},
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("report = %+v\nwant     %+v", r, want)
	}
}
