package cluster

import (
	"context"
	"sync/atomic"

	"repro/internal/engine"
)

// LocalBackend runs jobs on an in-process engine.Runner. It is the
// single-node degenerate case of the cluster (a coordinator over one
// LocalBackend behaves exactly like calling the runner directly) and the
// building block for in-process multi-worker tests and E22, where several
// LocalBackends with private caches emulate separate machines.
type LocalBackend struct {
	runner *engine.Runner
	id     string

	jobs atomic.Int64
	errs atomic.Int64
}

// NewLocalBackend wraps runner as a backend named id. The runner's
// WorkerID is set to id so every result it produces is attributed.
func NewLocalBackend(id string, runner *engine.Runner) *LocalBackend {
	runner.WorkerID = id
	return &LocalBackend{runner: runner, id: id}
}

// ID implements Backend.
func (b *LocalBackend) ID() string { return b.id }

// Run implements Backend with the panic-isolated runner path, mirroring
// what dsed's job handler gives a RemoteBackend.
func (b *LocalBackend) Run(ctx context.Context, job engine.Job) (*engine.Result, error) {
	b.jobs.Add(1)
	res, err := b.runner.RunSafe(ctx, job)
	if err != nil {
		b.errs.Add(1)
	}
	return res, err
}

// Health implements Backend; an in-process runner is always reachable.
func (b *LocalBackend) Health(ctx context.Context) error { return ctx.Err() }

// Store implements Backend with the runner's result store.
func (b *LocalBackend) Store() engine.Blobs { return b.runner.Results }

// Stats implements Backend.
func (b *LocalBackend) Stats() BackendStats {
	return BackendStats{Jobs: b.jobs.Load(), Errors: b.errs.Load()}
}
