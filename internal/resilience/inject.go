package resilience

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Named fault points. Each is a specific place in the engine where the
// injector can raise a deterministic fault; docs/ROBUSTNESS.md documents
// where each one fires.
const (
	// FaultCacheEvict fires in engine.Cache.Get: a present entry is
	// evicted and reported as a miss, forcing recomputation.
	FaultCacheEvict = "cache.evict"
	// FaultTransitionPanic fires in the sched.MeasureOpts frontier
	// expansion: the kernel panics mid-transition, exercising panic
	// isolation.
	FaultTransitionPanic = "transition.panic"
	// FaultSlowOp fires at kernel entry (psioa.Explore, sched.Measure): a
	// context-aware delay simulating a slow operation, exercising
	// deadlines.
	FaultSlowOp = "op.slow"
	// FaultJobTransient fires in engine.Runner.Run: the job fails with a
	// transient ErrInjected error, exercising the retry path.
	FaultJobTransient = "job.transient"
)

var (
	cInjected = obs.C("resilience.faults.injected")
)

// Injector raises deterministic faults at named points. Each armed point
// draws from its own seeded stream, so the per-point fire/skip sequence
// depends only on (seed, point name, hit index) — never on how concurrent
// goroutines interleave their hits across different points.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	points map[string]*faultPoint
}

type faultPoint struct {
	p         float64
	remaining int64 // fires left; negative means unlimited
	delay     time.Duration
	stream    *rng.Stream
	fired     int64
	seen      int64
}

// NewInjector returns an injector with no armed points; faults are drawn
// deterministically from seed.
func NewInjector(seed uint64) *Injector {
	return &Injector{seed: seed, points: make(map[string]*faultPoint)}
}

// Arm makes the named point fire with probability p on every hit.
// Arm(name, 1) fires always. Returns the injector for chaining.
func (in *Injector) Arm(name string, p float64) *Injector {
	return in.arm(name, p, -1, 0)
}

// ArmN is Arm limited to at most n fires; after that the point is spent.
func (in *Injector) ArmN(name string, p float64, n int) *Injector {
	return in.arm(name, p, int64(n), 0)
}

// ArmDelay arms a delaying point: when it fires, FireDelay sleeps d
// (honouring the caller's context).
func (in *Injector) ArmDelay(name string, p float64, d time.Duration) *Injector {
	return in.arm(name, p, -1, d)
}

func (in *Injector) arm(name string, p float64, remaining int64, d time.Duration) *Injector {
	h := fnv.New64a()
	h.Write([]byte(name))
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points[name] = &faultPoint{
		p:         p,
		remaining: remaining,
		delay:     d,
		stream:    rng.New(in.seed ^ h.Sum64()),
	}
	return in
}

// Fired reports how many times the named point has fired.
func (in *Injector) Fired(name string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if pt := in.points[name]; pt != nil {
		return pt.fired
	}
	return 0
}

// Seen reports how many times the named point has been hit (fired or not),
// i.e. how often the instrumented code path ran while this injector was
// installed.
func (in *Injector) Seen(name string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if pt := in.points[name]; pt != nil {
		return pt.seen
	}
	return 0
}

// fire decides whether the named point fires on this hit.
func (in *Injector) fire(name string) (time.Duration, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	pt := in.points[name]
	if pt == nil {
		return 0, false
	}
	pt.seen++
	if pt.remaining == 0 {
		return 0, false
	}
	if pt.p < 1 && pt.stream.Float64() >= pt.p {
		return 0, false
	}
	if pt.remaining > 0 {
		pt.remaining--
	}
	pt.fired++
	return pt.delay, true
}

// The installed injector. The atomic.Bool is the fast-path gate: with no
// injector installed every Fire* helper is one atomic load and a branch.
var (
	injectorOn atomic.Bool
	injector   atomic.Pointer[Injector]
)

// InstallInjector installs in as the process-wide injector and returns a
// restore function reinstating the previous state. Installing nil disables
// injection. Tests must call restore (and not run fault points in
// parallel with unrelated tests exercising the same points).
func InstallInjector(in *Injector) (restore func()) {
	prev := injector.Swap(in)
	injectorOn.Store(in != nil)
	return func() {
		injector.Store(prev)
		injectorOn.Store(prev != nil)
	}
}

func installed(name string) (time.Duration, bool) {
	if !injectorOn.Load() {
		return 0, false
	}
	in := injector.Load()
	if in == nil {
		return 0, false
	}
	d, ok := in.fire(name)
	if ok {
		cInjected.Inc()
	}
	return d, ok
}

// Fire reports whether the named fault point fires on this hit. Callers
// implement the fault themselves (e.g. the cache drops an entry).
func Fire(name string) bool {
	_, ok := installed(name)
	return ok
}

// FireErr returns a transient ErrInjected-classified error when the named
// point fires, nil otherwise.
func FireErr(name string) error {
	if _, ok := installed(name); ok {
		return Transient(fmt.Errorf("resilience: %w at %q", ErrInjected, name))
	}
	return nil
}

// FirePanic panics with an injected-fault value when the named point
// fires. The panic is expected to be recovered at an isolation boundary
// and converted to a *PanicError.
func FirePanic(name string) {
	if _, ok := installed(name); ok {
		panic(fmt.Sprintf("injected panic at %q", name))
	}
}

// FireDelay sleeps the armed delay when the named point fires, aborting
// early — with the classified context error — if ctx terminates during the
// sleep. A nil ctx skips the delay entirely: the slow-op fault exists to
// exercise deadline handling, and a call path with no context has no
// deadline to exercise — delaying it would only stall legacy paths
// uninterruptibly.
func FireDelay(ctx context.Context, name string) error {
	if ctx == nil {
		return nil
	}
	d, ok := installed(name)
	if !ok || d <= 0 {
		return nil
	}
	return sleepCtx(ctx, d)
}

// sleepCtx sleeps for d or until ctx terminates, whichever is first,
// returning the classified context error in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return CtxError(ctx)
	}
}
