package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
)

// MockBackend is a scriptable in-memory Backend for coordinator tests. It
// can delegate real work to an engine.Runner (so failure-path tests still
// produce real reports to compare byte-for-byte) while injecting deaths,
// one-shot failures and per-job hooks at the transport boundary.
type MockBackend struct {
	id string
	// Runner, when set, computes jobs for real; without it Run fails.
	runner *engine.Runner

	// store is the node's memory store, reachable only while alive.
	store engine.Blobs

	mu   sync.Mutex
	dead bool
	// failNext errors the next n Run calls with a transport failure.
	failNext int
	// hook, when set, runs before each job; a non-nil return preempts it.
	hook func(job engine.Job) error
	// jobs counts the jobs this backend was asked to run.
	jobs int64
}

// NewMockBackend builds a mock named id. runner may be nil for tests that
// only exercise routing and error policy.
func NewMockBackend(id string, runner *engine.Runner) *MockBackend {
	if runner != nil {
		runner.WorkerID = id
	}
	return &MockBackend{id: id, runner: runner, store: engine.NewCache(0).Blobs()}
}

// ID implements Backend.
func (b *MockBackend) ID() string { return b.id }

// Kill makes the node unreachable until Revive.
func (b *MockBackend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dead = true
}

// Revive brings a killed node back.
func (b *MockBackend) Revive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dead = false
}

// FailNext makes the next n Run calls fail with a transport error (the
// node stays up afterwards — a blip, not a death).
func (b *MockBackend) FailNext(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failNext = n
}

// SetHook installs fn to run before each job; returning a non-nil error
// preempts the job with it. Use it to kill the node mid-sweep.
func (b *MockBackend) SetHook(fn func(job engine.Job) error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hook = fn
}

// Run implements Backend.
func (b *MockBackend) Run(ctx context.Context, job engine.Job) (*engine.Result, error) {
	b.mu.Lock()
	b.jobs++
	dead, hook := b.dead, b.hook
	failing := b.failNext > 0
	if failing {
		b.failNext--
	}
	b.mu.Unlock()
	if dead {
		return nil, &UnreachableError{Node: b.id, Err: errors.New("node down")}
	}
	if failing {
		return nil, &UnreachableError{Node: b.id, Err: errors.New("connection reset")}
	}
	if hook != nil {
		if err := hook(job); err != nil {
			return nil, err
		}
	}
	if b.runner == nil {
		return nil, fmt.Errorf("cluster: mock %s has no runner", b.id)
	}
	return b.runner.RunSafe(ctx, job)
}

// Health implements Backend.
func (b *MockBackend) Health(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return &UnreachableError{Node: b.id, Err: errors.New("node down")}
	}
	return ctx.Err()
}

// Store implements Backend: a memory store that fails like Run while the
// node is dead.
func (b *MockBackend) Store() engine.Blobs { return mockStore{b} }

type mockStore struct{ b *MockBackend }

func (m mockStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := m.b.Health(ctx); err != nil {
		return nil, err
	}
	return m.b.store.Get(ctx, key)
}

func (m mockStore) Put(ctx context.Context, key string, data []byte) error {
	if err := m.b.Health(ctx); err != nil {
		return err
	}
	return m.b.store.Put(ctx, key, data)
}

// Stats implements Backend.
func (b *MockBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{Jobs: b.jobs}
}
