package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/testaut"
)

// TestPoolMapPanicIsolation pins panic isolation: a panicking task becomes
// a *resilience.PanicError reported under the deterministic lowest-index
// rule, never a crashed process.
func TestPoolMapPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := engine.NewPool(workers)
		err := p.Map(context.Background(), 16, func(i int) error {
			if i == 5 || i == 11 {
				panic(fmt.Sprintf("task %d exploded", i))
			}
			return nil
		})
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Map = %v, want *PanicError", workers, err)
		}
		if pe.Value != "task 5 exploded" {
			t.Errorf("workers=%d: got panic %q, want the lowest-index one", workers, pe.Value)
		}
		// A panic is an ordinary task failure: the pool stays usable.
		if err := p.Map(context.Background(), 4, func(int) error { return nil }); err != nil {
			t.Errorf("workers=%d: pool unusable after panic: %v", workers, err)
		}
	}
}

// TestPoolMapCancelledMidTask pins the context-after-fn rule: when the
// context terminates while workers are mid-task and every launched task
// itself returns nil, Map still reports the classified context error — a
// run interrupted mid-flight must not look like a clean completion.
func TestPoolMapCancelledMidTask(t *testing.T) {
	p := engine.NewPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	var entered atomic.Int32
	err := p.Map(ctx, 4, func(i int) error {
		if entered.Add(1) == 4 {
			cancel()
		}
		// Wait until cancellation so every task finishes *after* the
		// context died, then report success.
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, resilience.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Map = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestRunnerTimeout is the ISSUE acceptance test: a job whose workload runs
// far longer than its timeout must return an ErrDeadline-classified error
// in well under 2× the timeout.
func TestRunnerTimeout(t *testing.T) {
	restore := resilience.InstallInjector(
		resilience.NewInjector(1).ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	defer restore()
	r := engine.NewRunner(engine.NewPool(2), engine.NewCache(0))
	job := engine.Job{Kind: engine.KindCheck, Check: coinCheck(), TimeoutMS: 250}
	start := time.Now()
	_, err := r.Run(context.Background(), job)
	elapsed := time.Since(start)
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("Run = %v, want ErrDeadline", err)
	}
	if resilience.Class(err) != "deadline" {
		t.Errorf("Class = %q, want deadline", resilience.Class(err))
	}
	if elapsed >= 500*time.Millisecond {
		t.Errorf("timed-out job took %v, want < 2x the 250ms timeout", elapsed)
	}
}

// TestSimulateBudgetPartial pins graceful degradation: an exact simulate
// job stopped by its transition budget returns the fully expanded levels —
// a sub-probability prefix flagged Partial — instead of failing, and the
// partial is identical at every pool width, so a daemon's answer does not
// depend on the host's CPU count. The walk halts at many depths, so the
// budget ends after at least one halting level and the prefix has mass.
func TestSimulateBudgetPartial(t *testing.T) {
	walk := testaut.RandomWalk("w", 6, 0.5)
	resolve := func(string) (psioa.PSIOA, error) { return walk, nil }
	spec := &engine.SimulateSpec{Systems: []string{"walk"}, Sched: "greedy", Bound: 14}
	var want *engine.SimulateResult
	var full float64
	for _, pool := range []*engine.Pool{nil, engine.NewPool(1), engine.NewPool(2), engine.NewPool(8)} {
		r := engine.NewRunner(pool, engine.NewCache(16))
		r.Resolve = resolve
		width := "nil"
		if pool != nil {
			width = fmt.Sprint(pool.Workers())
		}
		// The budgeted job runs first, on a cold cache (a cached full
		// measure would satisfy the request without consulting the budget).
		res, err := r.Run(context.Background(), engine.Job{
			Kind: engine.KindSimulate, Simulate: spec, BudgetTransitions: 2000,
		})
		if err != nil {
			t.Fatalf("pool %s: budgeted simulate should degrade, not fail: %v", width, err)
		}
		sr := *res.Simulate
		if !sr.Partial || sr.Degraded == "" {
			t.Fatalf("pool %s: result not flagged partial: %+v", width, sr)
		}
		// The note reports the usage at the trip, which depends on which
		// shard flushed last; everything else must match exactly.
		sr.Degraded = ""
		if want == nil {
			want = &sr
		} else if !reflect.DeepEqual(sr, *want) {
			t.Errorf("pool %s: partial %+v differs from nil pool's %+v", width, sr, *want)
		}
		// Partials are never cached: an unconstrained run of the same spec
		// must produce the full measure.
		res, err = r.Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: spec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulate.Partial {
			t.Fatalf("pool %s: unconstrained run served the partial: %+v", width, res.Simulate)
		}
		full = res.Simulate.TotalMass
	}
	if want.TotalMass <= 0 || want.TotalMass >= full {
		t.Errorf("partial mass = %v, want in (0, %v)", want.TotalMass, full)
	}
}

// TestCheckBudgetFails pins that check jobs do NOT degrade: a verdict from
// a partial expansion would be unsound, so the job fails classified.
func TestCheckBudgetFails(t *testing.T) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	_, err := r.Run(context.Background(), engine.Job{
		Kind: engine.KindCheck, Check: coinCheck(), BudgetTransitions: 8,
	})
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("budgeted check = %v, want ErrBudgetExceeded", err)
	}
	if resilience.Class(err) != "budget" {
		t.Errorf("Class = %q, want budget", resilience.Class(err))
	}
}

// TestDescribeBudgetFails: a describe job whose state budget is smaller
// than its system's reachable set fails classified, as check jobs do.
func TestDescribeBudgetFails(t *testing.T) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	_, err := r.Run(context.Background(), engine.Job{
		Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{"ledger:direct:a:2", "ledger:parity:b:2"}},
		BudgetStates: 10,
	})
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("budgeted describe = %v, want ErrBudgetExceeded", err)
	}
}

// TestDescribeCompositeBudgetFails: the composite walk of a two-system
// describe job draws on the job's state budget too, so a budget the two
// system walks fit in fails the job once the composite outgrows it.
func TestDescribeCompositeBudgetFails(t *testing.T) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	systems := []string{"ledger:direct:a:2", "ledger:parity:b:2"} // 21 and 43 states, 903 composed
	const budget = 200
	for _, sys := range systems {
		if _, err := r.Run(context.Background(), engine.Job{
			Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{sys}}, BudgetStates: budget,
		}); err != nil {
			t.Fatalf("%s alone: %v", sys, err)
		}
	}
	_, err := r.Run(context.Background(), engine.Job{
		Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: systems}, BudgetStates: budget,
	})
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("budgeted describe = %v, want ErrBudgetExceeded", err)
	}
}

// TestDescribeCompositeDeadline: the composite walk of a two-system
// describe job, 22,015 states here and most of the job's work, stops at
// the job's deadline.
func TestDescribeCompositeDeadline(t *testing.T) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	_, err := r.Run(context.Background(), engine.Job{
		Kind:      engine.KindDescribe,
		Describe:  &engine.DescribeSpec{Systems: []string{"ledger:direct:a:3", "ledger:parity:b:3"}},
		TimeoutMS: 80,
	})
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("describe with an 80 ms timeout = %v, want ErrDeadline", err)
	}
}

// cancelOnSig cancels a context at its first Sig call and counts the calls.
type cancelOnSig struct {
	psioa.PSIOA
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (c *cancelOnSig) Sig(q psioa.State) psioa.Signature {
	if c.calls.Add(1) == 1 {
		c.cancel()
	}
	return c.PSIOA.Sig(q)
}

// TestDescribeCancelStopsWalk: a describe job's walk polls the job's
// context, so cancelling it mid-walk stops the walk within one checkpoint
// interval with an ErrCancelled-classified error, long before the system's
// 2002 states are walked.
func TestDescribeCancelStopsWalk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &cancelOnSig{PSIOA: testaut.Counter("c", 2000), cancel: cancel}
	r := engine.NewRunner(nil, engine.NewCache(0))
	r.Resolve = func(string) (psioa.PSIOA, error) { return a, nil }
	_, err := r.Run(ctx, engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{"counter"}}})
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("cancelled describe = %v, want ErrCancelled", err)
	}
	if n := a.calls.Load(); n > 500 {
		t.Errorf("the walk read %d signatures after its context was cancelled, want at most 500", n-1)
	}
}

// TestRunSafeIsolatesPanics pins the runner's isolation boundary.
func TestRunSafeIsolatesPanics(t *testing.T) {
	restore := resilience.InstallInjector(
		resilience.NewInjector(1).Arm(resilience.FaultTransitionPanic, 1))
	defer restore()
	r := engine.NewRunner(nil, engine.NewCache(0))
	_, err := r.RunSafe(context.Background(), engine.Job{
		Kind:     engine.KindSimulate,
		Simulate: &engine.SimulateSpec{Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 4},
	})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunSafe = %v, want *PanicError", err)
	}
	if resilience.Class(err) != "panic" {
		t.Errorf("Class = %q, want panic", resilience.Class(err))
	}
}

// TestStoreQueueShedding pins load shedding on the bounded async queue.
func TestStoreQueueShedding(t *testing.T) {
	restore := resilience.InstallInjector(
		resilience.NewInjector(1).ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	r := engine.NewRunner(nil, engine.NewCache(0))
	st := engine.NewStoreWith(engine.StoreConfig{QueueLimit: 2})
	slow := func(n int) engine.Job {
		return engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
			Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 4, Seed: uint64(n),
		}}
	}
	if _, err := st.Submit(ctx, r, slow(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(ctx, r, slow(2)); err != nil {
		t.Fatal(err)
	}
	_, err := st.Submit(ctx, r, slow(3))
	if !errors.Is(err, resilience.ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	// Cancel the in-flight jobs and verify Drain completes (the delay is
	// context-aware, so cancellation releases the queue promptly).
	cancel()
	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := st.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after cancel = %v", err)
	}
	if st.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain, want 0", st.InFlight())
	}
}

// TestChaosTransientRetry injects a bounded burst of transient job faults
// and verifies the store's retry policy absorbs them: every job reaches a
// terminal state and none is lost.
func TestChaosTransientRetry(t *testing.T) {
	in := resilience.NewInjector(99).ArmN(resilience.FaultJobTransient, 1, 2)
	restore := resilience.InstallInjector(in)
	defer restore()
	r := engine.NewRunner(nil, engine.NewCache(16))
	st := engine.NewStoreWith(engine.StoreConfig{
		Retry: resilience.Backoff{Attempts: 4, Base: time.Millisecond},
	})
	rec, err := st.Submit(context.Background(), r, engine.Job{
		Kind:     engine.KindSimulate,
		Simulate: &engine.SimulateSpec{Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := st.Await(context.Background(), rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != engine.StatusDone || fin.Result == nil {
		t.Fatalf("job should survive 2 injected transient faults: %+v", fin)
	}
	if got := in.Fired(resilience.FaultJobTransient); got != 2 {
		t.Errorf("injected %d transient faults, want 2", got)
	}
}

// TestChaosWorkerPanicsAndBreaker drives the same panicking job through
// the store until the circuit breaker quarantines its fingerprint.
func TestChaosWorkerPanicsAndBreaker(t *testing.T) {
	restore := resilience.InstallInjector(
		resilience.NewInjector(7).Arm(resilience.FaultTransitionPanic, 1))
	defer restore()
	r := engine.NewRunner(nil, engine.NewCache(0))
	st := engine.NewStoreWith(engine.StoreConfig{Breaker: resilience.NewBreaker(3)})
	job := engine.Job{
		Kind:     engine.KindSimulate,
		Simulate: &engine.SimulateSpec{Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 4},
	}
	for i := 0; i < 3; i++ {
		rec, err := st.Submit(context.Background(), r, job)
		if err != nil {
			t.Fatalf("submit %d rejected before quarantine: %v", i, err)
		}
		fin, err := st.Await(context.Background(), rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Status != engine.StatusFailed || fin.ErrClass != "panic" {
			t.Fatalf("panicking job %d: status %q class %q, want failed/panic", i, fin.Status, fin.ErrClass)
		}
	}
	_, err := st.Submit(context.Background(), r, job)
	if !errors.Is(err, resilience.ErrQuarantined) {
		t.Fatalf("4th submit = %v, want ErrQuarantined", err)
	}
	// A different workload is unaffected.
	other := engine.Job{
		Kind:     engine.KindSimulate,
		Simulate: &engine.SimulateSpec{Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 3},
	}
	if st.Breaker().Allow(other.Fingerprint()) != nil {
		t.Error("unrelated fingerprint quarantined")
	}
}

// TestChaosCacheEviction injects cache evictions and verifies results stay
// byte-identical: eviction only costs recomputation, never correctness.
// It runs at shard counts 1 and 8 so both the single global LRU and the
// striped per-shard LRUs keep the deterministic eviction order.
func TestChaosCacheEviction(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := engine.NewRunner(nil, engine.NewCacheSharded(64, shards))
			spec := &engine.SimulateSpec{Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 6}
			baseline, err := r.Simulate(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			restore := resilience.InstallInjector(
				resilience.NewInjector(3).Arm(resilience.FaultCacheEvict, 0.5))
			defer restore()
			for i := 0; i < 8; i++ {
				res, err := r.Simulate(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalMass != baseline.TotalMass || len(res.Outcomes) != len(baseline.Outcomes) {
					t.Fatalf("run %d diverged under cache eviction: %+v vs %+v", i, res, baseline)
				}
				for j, o := range res.Outcomes {
					if o != baseline.Outcomes[j] {
						t.Fatalf("run %d outcome %d = %+v, want %+v", i, j, o, baseline.Outcomes[j])
					}
				}
			}
		})
	}
}
