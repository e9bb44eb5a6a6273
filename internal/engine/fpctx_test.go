package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/obs"
	"repro/internal/protocols/coin"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// TestFDistFingerprintsUnderJobContext: the fingerprint walk of a memo
// lookup runs under the job's context. It is timed in the job's meter as
// a psioa.explore phase, and a job past its deadline stops there, even
// when the cache holds its answer. The 0.3 coin's masses are not dyadic,
// so its trace takes the tree route, which the cache keys; the fair
// coin's are, so the DAG answers it without a fingerprint.
func TestFDistFingerprintsUnderJobContext(t *testing.T) {
	p := 0.3
	world := func() psioa.PSIOA {
		return psioa.MustCompose(coin.Env("x"), coin.Flipper("x", p))
	}
	c := engine.NewCache(64)
	fdist := func(ctx context.Context) error {
		w := world()
		s := &sched.Greedy{A: w, Bound: 6}
		_, err := c.FDistOpts(ctx, w, s, insight.Trace(), 8, nil, sched.Options{})
		return err
	}
	m := &obs.Meter{}
	if err := fdist(obs.WithMeter(context.Background(), m)); err != nil {
		t.Fatal(err)
	}
	explores := 0
	for _, p := range m.Report().Phases {
		if p.Name == "psioa.explore" {
			explores += int(p.Calls)
		}
	}
	if explores == 0 {
		t.Errorf("the job's meter has no psioa.explore phase: %+v", m.Report().Phases)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := fdist(ctx); !errors.Is(err, resilience.ErrDeadline) {
		t.Errorf("FDistOpts past its deadline with its answer cached = %v, want ErrDeadline", err)
	}

	p, c = 0.5, engine.NewCache(64)
	m = &obs.Meter{}
	if err := fdist(obs.WithMeter(context.Background(), m)); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Report().Phases {
		if p.Name == "psioa.explore" {
			t.Errorf("the DAG-answered f-dist has a psioa.explore phase: %+v", m.Report().Phases)
		}
	}
	if c.Len() != 0 {
		t.Errorf("the DAG-answered f-dist left %d cache entries, want none", c.Len())
	}
}
