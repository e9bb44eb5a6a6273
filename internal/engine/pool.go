// Package engine is the execution layer of the framework: a bounded worker
// pool that fans out the embarrassingly-parallel (environment, scheduler)
// sweeps of the implementation checkers, a memoization cache for the f-dist
// images they repeat, and a batch job API that expresses check and
// simulate requests as values so the same code path backs the CLI tools and
// the dsed daemon.
//
// The pool and cache plug into internal/core through the core.Executor and
// core.Memo hooks; reports produced through the engine are byte-identical
// to sequential, uncached runs.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// Observability instruments for the pool.
var (
	cPoolMaps   = obs.C("engine.pool.maps")
	cPoolTasks  = obs.C("engine.pool.tasks")
	cPoolPanics = obs.C("engine.pool.panics")
	gPoolBusy   = obs.G("engine.pool.busy.max")
)

// call runs one task with panic isolation: a panicking fn becomes a
// *resilience.PanicError instead of killing the process, and a task that
// returns nil under a terminated context reports the classified context
// error — so cancellation mid-task is surfaced by the same deterministic
// lowest-index rule as an ordinary task failure.
func call(ctx context.Context, fn func(i int) error, i int) error {
	err := resilience.Catch(func() error { return fn(i) })
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		cPoolPanics.Inc()
	}
	if err == nil {
		err = resilience.CtxError(ctx)
	}
	return err
}

// Pool is a bounded worker pool. A single pool is meant to be shared by all
// concurrent work in a process (every CLI invocation, every daemon job):
// the worker budget caps total parallelism, and concurrent Map calls simply
// queue for slots. The zero worker count defaults to GOMAXPROCS.
type Pool struct {
	workers int
	sem     chan struct{}
	mu      sync.Mutex
	busy    int
}

// NewPool returns a pool with the given worker budget; workers <= 0 means
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Busy returns the number of tasks currently running on the pool — a live
// instantaneous view (the engine.pool.busy.max gauge keeps the high-water
// mark).
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busy
}

// Map runs fn(0..n-1), at most Workers() at a time, and waits for all
// launched tasks. The error returned is that of the lowest-index failing
// task — the same error a sequential in-order run would return — or the
// classified context error if cancellation stopped the launch with no task
// failure. The context is also checked after each fn returns, so a context
// terminated while a worker was mid-task is reported under the same
// lowest-index rule (as resilience.ErrCancelled/ErrDeadline wrapping
// ctx.Err()). Panics in fn are isolated into *resilience.PanicError task
// failures. fn must be safe for concurrent calls with distinct indices. A
// nil pool or a single-worker pool runs sequentially, stopping at the
// first error.
func (p *Pool) Map(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	cPoolMaps.Inc()
	defer obs.Time("engine.pool.map.us")()
	if p == nil || p.workers <= 1 || n == 1 {
		cPoolTasks.Add(int64(n))
		for i := 0; i < n; i++ {
			if err := resilience.CtxError(ctx); err != nil {
				return err
			}
			if err := call(ctx, fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	launched := 0
launch:
	// Launch strictly in index order: once a launched task fails at index
	// k, every index < k has already been launched, so the minimum failing
	// index among launched tasks equals the sequential first failure.
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			break launch
		case p.sem <- struct{}{}:
		}
		if failed() {
			<-p.sem
			break launch
		}
		p.mu.Lock()
		p.busy++
		gPoolBusy.SetMax(int64(p.busy))
		p.mu.Unlock()
		cPoolTasks.Inc()
		launched++
		wg.Add(1)
		go func(i int) {
			defer func() {
				p.mu.Lock()
				p.busy--
				p.mu.Unlock()
				<-p.sem
				wg.Done()
			}()
			if err := call(ctx, fn, i); err != nil {
				record(i, err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if launched < n {
		return resilience.CtxError(ctx)
	}
	return nil
}
