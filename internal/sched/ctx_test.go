package sched_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

func TestMeasureCtxCancellation(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 14}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	em, err := sched.MeasureOpts(ctx, w, s, 20, nil, sched.Options{})
	if !errors.Is(err, resilience.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if em != nil {
		t.Error("cancellation must not return a partial measure")
	}
}

func TestMeasureCtxBudgetPartial(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 14}
	full, err := sched.Measure(w, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	bud := resilience.NewBudget(0, 2000, 0)
	em, err := sched.MeasureOpts(nil, w, s, 20, bud, sched.Options{})
	if !resilience.IsBudget(err) {
		t.Fatalf("err = %v, want budget", err)
	}
	if em == nil {
		t.Fatal("budget stop should return the partial measure")
	}
	// Graceful degradation: the partial is a strict sub-probability prefix
	// of ε_σ — every execution it contains carries exactly its full-measure
	// mass, and the total is below 1.
	if tot := em.Total(); tot <= 0 || tot >= full.Total() {
		t.Errorf("partial total = %v, want in (0, %v)", tot, full.Total())
	}
	em.ForEach(func(f *psioa.Frag, p float64) {
		if fp := full.P(f); fp != p {
			t.Errorf("partial mass of %v = %v, full measure has %v", f, p, fp)
		}
	})
}

// TestMeasureCtxMatchesMeasure: a generous budget and a live context change
// nothing — at every worker count the checkpointed kernel agrees bitwise
// with the independent string-keyed reference.
func TestMeasureCtxMatchesMeasure(t *testing.T) {
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 10}
	ref, err := refExpand(w, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		em, err := sched.MeasureOpts(context.Background(), w, s, 20, resilience.NewBudget(1<<30, 1<<30, 0),
			sched.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if msg := diffRef(em, ref); msg != "" {
			t.Errorf("workers=%d: hardened measure diverged from reference: %s", workers, msg)
		}
	}
}

func TestSampleImageCtxNoPartials(t *testing.T) {
	c := testaut.Coin("c", 0.5)
	s := &sched.Greedy{A: c, Bound: 5}
	fragKey := func(f *psioa.Frag) string { return f.Key() }
	one := sched.Options{Workers: 1}
	// Cancellation: no result at all (estimates are unbiased only at the
	// full sample count).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := sched.SampleImageOpts(ctx, c, s, rng.New(1), 10, 5000, fragKey, nil, one)
	if d != nil || !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled SampleImageOpts = (%v, %v), want (nil, ErrCancelled)", d, err)
	}
	// Budget exhaustion: same, no partial estimate.
	d, err = sched.SampleImageOpts(nil, c, s, rng.New(1), 10, 5000, fragKey, resilience.NewBudget(100, 0, 0), one)
	if d != nil || !resilience.IsBudget(err) {
		t.Fatalf("budgeted SampleImageOpts = (%v, %v), want (nil, budget)", d, err)
	}
	// Unconstrained: a live context and a generous budget change nothing.
	want, err := sched.SampleImageOpts(nil, c, s, rng.New(7), 10, 500, fragKey, nil, one)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sched.SampleImageOpts(context.Background(), c, s, rng.New(7), 10, 500, fragKey,
		resilience.NewBudget(1<<30, 1<<30, 0), one)
	if err != nil {
		t.Fatal(err)
	}
	if renderDist(want) != renderDist(got) {
		t.Errorf("hardened sampling diverged:\n%s\nvs\n%s", renderDist(got), renderDist(want))
	}
}
