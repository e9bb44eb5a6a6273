package resilience_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// drive steps a checkpoint n times with one state each, returning the first
// terminal error.
func drive(ck *resilience.Checkpoint, n int) error {
	for i := 0; i < n; i++ {
		if err := ck.Step(1, 0); err != nil {
			return err
		}
	}
	return ck.Finish()
}

func TestNilCheckpointIsFree(t *testing.T) {
	ck := resilience.NewCheckpoint(nil, nil)
	if ck != nil {
		t.Fatal("nothing to enforce should yield a nil checkpoint")
	}
	if err := drive(ck, 10000); err != nil {
		t.Fatalf("nil checkpoint errored: %v", err)
	}
}

func TestCheckpointCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ck := resilience.NewCheckpoint(ctx, nil)
	if ck == nil {
		t.Fatal("context-bearing checkpoint should be non-nil")
	}
	if err := drive(ck, 100); err != nil {
		t.Fatalf("live context errored: %v", err)
	}
	cancel()
	err := drive(ck, 10000)
	if !errors.Is(err, resilience.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled checkpoint = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

func TestCheckpointDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := drive(resilience.NewCheckpoint(ctx, nil), 10000)
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("expired checkpoint = %v, want ErrDeadline", err)
	}
}

func TestBudgetStates(t *testing.T) {
	b := resilience.NewBudget(1000, 0, 0)
	err := drive(resilience.NewCheckpoint(nil, b), 100000)
	if !resilience.IsBudget(err) {
		t.Fatalf("err = %v, want budget", err)
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Dimension != "states" {
		t.Errorf("Dimension = %q, want states", be.Dimension)
	}
	// Amortized polling overshoots by at most one poll interval.
	if be.States <= 1000 || be.States > 1000+512 {
		t.Errorf("States = %d, want in (1000, 1512]", be.States)
	}
	if resilience.Class(err) != "budget" {
		t.Errorf("Class = %q, want budget", resilience.Class(err))
	}
}

func TestBudgetTransitions(t *testing.T) {
	b := resilience.NewBudget(0, 50, 0)
	ck := resilience.NewCheckpoint(nil, b)
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = ck.Step(0, 1)
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Dimension != "transitions" {
		t.Fatalf("err = %v, want transitions *BudgetError", err)
	}
}

func TestBudgetWallClock(t *testing.T) {
	b := resilience.NewBudget(0, 0, time.Nanosecond)
	time.Sleep(time.Millisecond)
	err := drive(resilience.NewCheckpoint(nil, b), 10000)
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Dimension != "wallclock" {
		t.Fatalf("err = %v, want wallclock *BudgetError", err)
	}
	if be.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", be.Elapsed)
	}
}

// TestBudgetShared pins that one budget bounds the sum of work across
// checkpoints (one job = several kernel calls sharing the job's budget).
func TestBudgetShared(t *testing.T) {
	b := resilience.NewBudget(1000, 0, 0)
	if err := drive(resilience.NewCheckpoint(nil, b), 600); err != nil {
		t.Fatalf("first call within budget errored: %v", err)
	}
	err := drive(resilience.NewCheckpoint(nil, b), 600)
	if !resilience.IsBudget(err) {
		t.Fatalf("second call should exhaust the shared budget, got %v", err)
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("exhausted budget returned %T, want *BudgetError", err)
	}
	if be.States < 1000 {
		t.Errorf("charged states = %d, want >= 1000", be.States)
	}
}

// TestCheckpointChargesMeter pins that a checkpoint charges the meter its
// context carries, with or without a budget, and only what it flushed.
func TestCheckpointChargesMeter(t *testing.T) {
	m := &obs.Meter{}
	ctx := obs.WithMeter(context.Background(), m)
	if err := drive(resilience.NewCheckpoint(ctx, nil), 1000); err != nil {
		t.Fatal(err)
	}
	if err := drive(resilience.NewCheckpoint(ctx, resilience.NewBudget(1000000, 0, 0)), 300); err != nil {
		t.Fatal(err)
	}
	if r := m.Report(); r.States != 1300 || r.Transitions != 0 {
		t.Errorf("meter charged %d states, %d transitions; want 1300, 0", r.States, r.Transitions)
	}
}

func TestDefaultBudget(t *testing.T) {
	prev := resilience.SetDefaultBudget(resilience.NewBudget(100, 0, 0))
	defer resilience.SetDefaultBudget(prev)
	// An explicit nil budget falls back to the process default.
	err := drive(resilience.NewCheckpoint(nil, nil), 100000)
	if !resilience.IsBudget(err) {
		t.Fatalf("default budget not enforced: %v", err)
	}
	// An explicit budget wins over the default.
	if err := drive(resilience.NewCheckpoint(nil, resilience.NewBudget(1000000, 0, 0)), 5000); err != nil {
		t.Fatalf("explicit budget should override the default: %v", err)
	}
}
