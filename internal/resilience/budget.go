package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Budget bounds how much work an operation may perform. Usage counters are
// atomic so one budget can be shared across pool workers and memoized
// kernel calls of a single job: the whole job is bounded, not each call.
// The zero limit in any dimension means "unlimited".
type Budget struct {
	maxStates int64
	maxTrans  int64
	wall      time.Duration
	start     time.Time
	states    atomic.Int64
	trans     atomic.Int64
}

// NewBudget builds a budget of at most states explored states, transitions
// expanded transitions, and wall elapsed wall-clock time (measured from
// this call). Zero disables the corresponding dimension; NewBudget(0, 0, 0)
// returns an always-passing budget (prefer nil for that).
func NewBudget(states, transitions int64, wall time.Duration) *Budget {
	return &Budget{maxStates: states, maxTrans: transitions, wall: wall, start: time.Now()}
}

// check charges addStates/addTrans and returns a *BudgetError as soon as
// any enabled dimension is exhausted.
func (b *Budget) check(addStates, addTrans int64) error {
	s := b.states.Add(addStates)
	t := b.trans.Add(addTrans)
	if b.maxStates > 0 && s > b.maxStates {
		return b.errFor("states", s, t)
	}
	if b.maxTrans > 0 && t > b.maxTrans {
		return b.errFor("transitions", s, t)
	}
	if b.wall > 0 && time.Since(b.start) > b.wall {
		return b.errFor("wallclock", s, t)
	}
	return nil
}

func (b *Budget) errFor(dim string, states, trans int64) error {
	return &BudgetError{
		Dimension:   dim,
		States:      states,
		Transitions: trans,
		Elapsed:     time.Since(b.start),
	}
}

// BudgetError reports a budget-bounded stop, carrying how far the
// operation got before the budget ran out. It wraps ErrBudgetExceeded, so
// errors.Is(err, ErrBudgetExceeded) classifies it; kernels that can return
// a meaningful prefix pair it with a partial result.
type BudgetError struct {
	// Dimension is the exhausted limit: "states", "transitions" or
	// "wallclock".
	Dimension string
	// States and Transitions are the usage charged when the budget
	// tripped (cumulative across everything sharing the budget).
	States      int64
	Transitions int64
	// Elapsed is the wall-clock time since the budget was created.
	Elapsed time.Duration
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("resilience: %s budget exceeded after %d states, %d transitions, %s",
		e.Dimension, e.States, e.Transitions, e.Elapsed.Round(time.Millisecond))
}

// Unwrap makes the error classify as ErrBudgetExceeded.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// IsBudget reports whether err is a budget-bounded stop, i.e. whether the
// result accompanying it (if any) is a usable partial prefix.
func IsBudget(err error) bool {
	return errors.Is(err, ErrBudgetExceeded)
}

// defaultBudget is the process-wide fallback budget consulted when a
// checkpoint is created without an explicit one. CLI tools install it from
// their -budget flags so even call paths that do not thread a budget (the
// experiment suite under dsebench) become bounded.
var defaultBudget atomic.Pointer[Budget]

// SetDefaultBudget installs (or, with nil, clears) the process-wide
// fallback budget and returns the previous one.
func SetDefaultBudget(b *Budget) *Budget {
	if b == nil {
		return defaultBudget.Swap(nil)
	}
	return defaultBudget.Swap(b)
}

// DefaultBudget returns the process-wide fallback budget, or nil.
func DefaultBudget() *Budget { return defaultBudget.Load() }

// CLILimits applies a command's -timeout and -budget flags: the context
// times out after timeout, and the default budget carries both limits into
// the kernels' cancellation checkpoints, even where no context is threaded
// through. Zero means no limit. The caller must call cancel.
func CLILimits(timeout time.Duration, budget int64) (ctx context.Context, cancel context.CancelFunc) {
	ctx, cancel = context.Background(), func() {}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	if budget > 0 || timeout > 0 {
		SetDefaultBudget(NewBudget(0, budget, timeout))
	}
	return ctx, cancel
}

// pollEvery is the amortization factor of Checkpoint.Step: the context and
// the shared budget are consulted once per pollEvery steps, bounding both
// the per-step cost (two adds, a decrement, a branch) and the overshoot
// past a limit (at most pollEvery states + the transitions charged with
// them).
const pollEvery = 256

// Checkpoint is the cooperative cancellation and budget probe kernels call
// once per unit of work. A nil *Checkpoint is valid and free, so legacy
// call paths (nil ctx, no budget, no meter) pay only the nil check.
type Checkpoint struct {
	ctx    context.Context
	done   <-chan struct{}
	budget *Budget
	meter  *obs.Meter
	states int64 // charged locally, flushed every pollEvery steps
	trans  int64
	tick   int
}

// NewCheckpoint builds a checkpoint polling ctx and charging b (or the
// process default budget when b is nil) and the meter ctx carries. Returns
// nil — a free checkpoint — when there is nothing to enforce or meter.
func NewCheckpoint(ctx context.Context, b *Budget) *Checkpoint {
	if b == nil {
		b = defaultBudget.Load()
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	m := obs.MeterFrom(ctx)
	if done == nil && b == nil && m == nil {
		return nil
	}
	return &Checkpoint{ctx: ctx, done: done, budget: b, meter: m, tick: pollEvery}
}

// Step charges states/trans units of work and, once per pollEvery calls,
// polls the context and the budget. A non-nil return is terminal: an
// ErrCancelled/ErrDeadline-classified context error or a *BudgetError.
func (c *Checkpoint) Step(states, trans int64) error {
	if c == nil {
		return nil
	}
	c.states += states
	c.trans += trans
	if c.tick--; c.tick > 0 {
		return nil
	}
	return c.flush()
}

// Finish flushes the residual locally-accumulated work into the budget and
// the meter and performs a final poll. Kernels call it before returning
// success so shared-budget accounting stays accurate across calls.
func (c *Checkpoint) Finish() error {
	if c == nil {
		return nil
	}
	return c.flush()
}

func (c *Checkpoint) flush() error {
	c.tick = pollEvery
	if c.done != nil {
		select {
		case <-c.done:
			return CtxError(c.ctx)
		default:
		}
	}
	states, trans := c.states, c.trans
	c.states, c.trans = 0, 0
	c.meter.Work(states, trans)
	if c.budget != nil {
		return c.budget.check(states, trans)
	}
	return nil
}
