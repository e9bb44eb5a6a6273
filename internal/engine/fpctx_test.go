package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/obs"
	"repro/internal/protocols/channel"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// TestFDistFingerprintsUnderJobContext: the fingerprint walk of a memo
// lookup runs under the job's context. It is timed in the job's meter as
// a psioa.explore phase, and a job past its deadline stops there, even
// when the cache holds its answer.
func TestFDistFingerprintsUnderJobContext(t *testing.T) {
	world := func() psioa.PSIOA {
		return psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
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
}
