package sched_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// telemetryWorkload is a frontier wide enough to exceed the inline
// threshold, so the sharded path (and its per-shard accounting) runs.
func telemetryWorkload() (psioa.PSIOA, sched.Scheduler, int) {
	w := testaut.RandomWalk("w", 8, 0.5)
	return w, &sched.Random{A: w, Bound: 13}, 16
}

// TestMeasureOptsTelemetry checks that a collector threaded through the
// parallel measure kernel accounts for the whole expansion — and that
// collecting changes nothing about the result.
func TestMeasureOptsTelemetry(t *testing.T) {
	ctx := context.Background()
	a, s, depth := telemetryWorkload()
	want, err := sched.MeasureOpts(ctx, a, s, depth, nil, sched.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := &sched.Stats{}
	got, err := sched.MeasureOpts(ctx, a, s, depth, nil, sched.Options{Workers: 4, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if renderMeasure(got) != renderMeasure(want) {
		t.Error("telemetered measure differs from the undisturbed one")
	}

	if st.Levels() == 0 {
		t.Fatal("no levels recorded")
	}
	if st.DepthReached() == 0 {
		t.Error("depth high-water mark not recorded")
	}
	shards := st.Shards()
	if len(shards) == 0 {
		t.Fatal("no shard rows recorded")
	}
	var items, width int64
	for i, sh := range shards {
		if sh.Shard != i {
			t.Errorf("shard row %d carries index %d", i, sh.Shard)
		}
		items += sh.Items
		width += sh.Width
	}
	if items == 0 {
		t.Error("no items accounted to any shard")
	}
	if width < items {
		t.Errorf("total width %d < total items %d: width is the span handed to the shard", width, items)
	}
	phases := st.Phases()
	if len(phases) != 1 || phases[0].Name != "sched.measure" || phases[0].Calls != 1 {
		t.Errorf("phases = %+v, want one sched.measure call", phases)
	}
}

// TestMeasureOptsTelemetryWorkerInvariant checks that the per-shard
// accounting sees the whole expansion at every worker count: the shards'
// items sum to the same positive total at 1, 2, 4 and 8 workers. (That the
// measure itself is byte-identical across worker counts is
// TestParallelMeasureByteIdentical's job.)
func TestMeasureOptsTelemetryWorkerInvariant(t *testing.T) {
	a, s, depth := telemetryWorkload()
	want := int64(-1)
	for _, workers := range []int{1, 2, 4, 8} {
		st := &sched.Stats{}
		if _, err := sched.MeasureOpts(context.Background(), a, s, depth, nil, sched.Options{Workers: workers, Stats: st}); err != nil {
			t.Fatal(err)
		}
		var items int64
		for _, sh := range st.Shards() {
			items += sh.Items
		}
		if want < 0 {
			want = items
		}
		if items != want || items == 0 {
			t.Errorf("workers=%d: shards account for %d items, want %d (workers=1), > 0", workers, items, want)
		}
	}
}

// TestSampleTelemetry checks the sampling kernel's per-shard accounting:
// every drawn sample is attributed to exactly one shard.
func TestSampleTelemetry(t *testing.T) {
	ctx := context.Background()
	a, s, depth := telemetryWorkload()
	st := &sched.Stats{}
	const n = 200
	_, err := sched.SampleImageOpts(ctx, a, s, rng.New(7), depth, n,
		func(f *psioa.Frag) string { return f.Key() }, nil, sched.Options{Workers: 4, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	var items int64
	for _, sh := range st.Shards() {
		items += sh.Items
	}
	if items != n {
		t.Errorf("shards account for %d samples, want %d", items, n)
	}
	phases := st.Phases()
	if len(phases) != 1 || phases[0].Name != "sched.sample" {
		t.Errorf("phases = %+v, want one sched.sample row", phases)
	}
}

// TestDagTelemetry checks the DAG kernel records one shard per level and
// its node count, without changing the measure.
func TestDagTelemetry(t *testing.T) {
	ctx := context.Background()
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 9}
	want, err := sched.MeasureDAGOpts(ctx, w, s, 12, nil, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &sched.Stats{}
	got, err := sched.MeasureDAGOpts(ctx, w, s, 12, nil, sched.Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	final := func(q psioa.State, depth int) string { return fmt.Sprintf("%v@%d", q, depth) }
	if fmt.Sprint(got.Image(final)) != fmt.Sprint(want.Image(final)) {
		t.Error("telemetered DAG measure differs")
	}
	if st.Levels() == 0 || st.DagNodes() == 0 {
		t.Errorf("levels=%d dagNodes=%d, want both > 0", st.Levels(), st.DagNodes())
	}
	phases := st.Phases()
	if len(phases) != 1 || phases[0].Name != "sched.measure.dag" {
		t.Errorf("phases = %+v, want one sched.measure.dag row", phases)
	}
}

// TestStatsSharedAcrossKernels is the race check: one collector shared by
// concurrent kernel calls (the engine shares one Stats per job across every
// pair task) must be safe under -race and lose no work.
func TestStatsSharedAcrossKernels(t *testing.T) {
	ctx := context.Background()
	a, s, depth := telemetryWorkload()
	st := &sched.Stats{}
	const calls = 8
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = sched.MeasureOpts(ctx, a, s, depth, nil, sched.Options{Workers: 2, Stats: st})
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", c, err)
		}
	}
	single := &sched.Stats{}
	if _, err := sched.MeasureOpts(ctx, a, s, depth, nil, sched.Options{Workers: 2, Stats: single}); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Levels(), calls*single.Levels(); got != want {
		t.Errorf("shared collector recorded %d levels, want %d (%d calls × %d)", got, want, calls, single.Levels())
	}
	var got, want int64
	for _, sh := range st.Shards() {
		got += sh.Items
	}
	for _, sh := range single.Shards() {
		want += sh.Items
	}
	if got != calls*want {
		t.Errorf("shared collector accounted %d items, want %d", got, calls*want)
	}
	if len(st.Phases()) != 1 || st.Phases()[0].Calls != calls {
		t.Errorf("phases = %+v, want one sched.measure row with %d calls", st.Phases(), calls)
	}
}

// TestSampleStepsCounter: sched.sample.steps advances by exactly the
// executed steps of the samples drawn.
func TestSampleStepsCounter(t *testing.T) {
	a, s, depth := telemetryWorkload()
	stream := rng.New(11)
	before := obs.C("sched.sample.steps").Value()
	steps := int64(0)
	for i := 0; i < 50; i++ {
		f, err := sched.Sample(a, s, stream, depth)
		if err != nil {
			t.Fatal(err)
		}
		steps += int64(f.Len())
	}
	if got := obs.C("sched.sample.steps").Value() - before; got != steps {
		t.Errorf("sched.sample.steps advanced by %d, samples hold %d steps", got, steps)
	}
}
