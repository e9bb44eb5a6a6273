package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Job kinds.
const (
	KindCheck    = "check"
	KindSimulate = "simulate"
	KindDescribe = "describe"
)

// Job is one batch request, expressed as a value so the same code path
// backs the CLI tools, tests and the dsed daemon. Exactly one of the spec
// fields matching Kind must be set.
type Job struct {
	// Kind selects the operation: check | simulate | describe.
	Kind string `json:"kind"`
	// Check is the Def 4.12 implementation check request.
	Check *CheckSpec `json:"check,omitempty"`
	// Simulate is the execution-measure / Monte-Carlo request.
	Simulate *SimulateSpec `json:"simulate,omitempty"`
	// Describe is the §4.1–4.2 resource-bound profile request.
	Describe *DescribeSpec `json:"describe,omitempty"`
	// TimeoutMS bounds the job's run time (0 = caller's default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// BudgetStates / BudgetTransitions / BudgetWallMS bound the total
	// kernel work of the job (shared across all its workers); zero means
	// unlimited. Simulate jobs degrade gracefully to a partial result;
	// check jobs fail with an ErrBudgetExceeded-classified error (a
	// verdict from a partial expansion would be unsound).
	BudgetStates      int64 `json:"budget_states,omitempty"`
	BudgetTransitions int64 `json:"budget_transitions,omitempty"`
	BudgetWallMS      int64 `json:"budget_wall_ms,omitempty"`
}

// Fingerprint canonically identifies the job's workload — kind, spec and
// budget, but not the timeout — for the circuit breaker: two submissions
// of the same spec share a quarantine state regardless of deadline. It is
// the 64-bit FNV-1a hash of the job's canonical request.
func (j Job) Fingerprint() string {
	b := j.canonical()
	if b == nil {
		return "job-unmarshalable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("job-%016x", h.Sum64())
}

// canonical returns the job's canonical request: its JSON encoding with
// the timeout zeroed, or nil when it does not encode.
func (j Job) canonical() []byte {
	j.TimeoutMS = 0
	b, err := json.Marshal(j)
	if err != nil {
		return nil
	}
	return b
}

// Builtin reports whether every system ref of the job names a builtin
// (spec.Builtin). Such a job reads no file, so its result is a function of
// its canonical request and may be served from a store keyed by it; a file
// ref's result changes when the file does.
func (j Job) Builtin() bool {
	var refs []string
	if j.Check != nil {
		refs = append(append(refs, j.Check.Left, j.Check.Right), j.Check.Envs...)
	}
	if j.Simulate != nil {
		refs = append(refs, j.Simulate.Systems...)
	}
	if j.Describe != nil {
		refs = append(refs, j.Describe.Systems...)
	}
	for _, ref := range refs {
		if !spec.Builtin(ref) {
			return false
		}
	}
	return true
}

// CheckSpec describes an Implements run over spec references (see
// internal/spec.Resolve for the reference syntax).
type CheckSpec struct {
	Left      string     `json:"left"`
	Right     string     `json:"right"`
	Envs      []string   `json:"envs"`
	Schema    string     `json:"schema,omitempty"` // oblivious | basic | priority (default oblivious)
	Templates [][]string `json:"templates,omitempty"`
	Insight   string     `json:"insight,omitempty"` // trace | accept:<act> | print:<prefix> (default trace)
	Eps       float64    `json:"eps"`
	Q1        int        `json:"q1"`
	Q2        int        `json:"q2,omitempty"`
	MaxDepth  int        `json:"max_depth,omitempty"`
}

// SimulateSpec describes an exact execution-measure computation (Samples ==
// 0) or a Monte-Carlo estimate (Samples > 0) of the composed systems under
// one scheduler.
type SimulateSpec struct {
	Systems []string `json:"systems"`
	Sched   string   `json:"sched,omitempty"` // greedy | random | priority | sequence (default greedy)
	Order   []string `json:"order,omitempty"`
	Bound   int      `json:"bound"`
	Samples int      `json:"samples,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	Insight string   `json:"insight,omitempty"`
	// MaxDepth guards the expansion; default 4*Bound+16.
	MaxDepth int `json:"max_depth,omitempty"`
}

// DescribeSpec describes a resource-bound profile request. With exactly two
// systems the empirical Lemma 4.3 composition bound is also reported.
type DescribeSpec struct {
	Systems []string `json:"systems"`
	Limit   int      `json:"limit,omitempty"` // exploration limit, default 100000
}

// SimOutcome is one row of a simulated insight distribution.
type SimOutcome struct {
	Key string  `json:"key"`
	P   float64 `json:"p"`
}

// SimulateResult is the outcome of a simulate job. For exact runs the
// measure statistics are filled; for sampled runs Executions is the sample
// count and TotalMass 1. When a work budget ran out mid-expansion the
// result is the exact sub-probability prefix expanded so far, flagged
// Partial with the budget diagnostics in Degraded.
type SimulateResult struct {
	Exact      bool         `json:"exact"`
	InsightID  string       `json:"insight_id"`
	Executions int          `json:"executions"`
	TotalMass  float64      `json:"total_mass"`
	MaxLen     int          `json:"max_len"`
	Outcomes   []SimOutcome `json:"outcomes"`
	Partial    bool         `json:"partial,omitempty"`
	Degraded   string       `json:"degraded,omitempty"`
}

// SystemDescription is the profile of one system in a describe job.
type SystemDescription struct {
	Ref            string `json:"ref"`
	Description    string `json:"description"`
	QueryMaxBits   int64  `json:"query_max_bits"`
	QueryTotalBits int64  `json:"query_total_bits"`
	States         int    `json:"states"`
	Actions        int    `json:"actions"`
	Truncated      bool   `json:"truncated"`
}

// DescribeResult is the outcome of a describe job.
type DescribeResult struct {
	Systems          []SystemDescription `json:"systems"`
	CompositionBound string              `json:"composition_bound,omitempty"`
}

// Result is the outcome of a job; the field matching the job's Kind is set.
// Report is the job's telemetry account (always attached by Run). WorkerID
// names the node that computed the result (see Runner.WorkerID) so merged
// cluster reports and /v1/debug can attribute shards to nodes; it is empty
// for anonymous runners.
type Result struct {
	Kind     string          `json:"kind"`
	WorkerID string          `json:"worker_id,omitempty"`
	Check    *core.Report    `json:"check,omitempty"`
	Simulate *SimulateResult `json:"simulate,omitempty"`
	Describe *DescribeResult `json:"describe,omitempty"`
	Report   *obs.RunReport  `json:"run_report,omitempty"`
}

// Observability instruments for the runner.
var (
	cJobsRun    = obs.C("engine.jobs.run")
	cJobsFailed = obs.C("engine.jobs.failed")
	cResolved   = obs.C("engine.refs.resolved")
)

// Runner executes jobs on a shared pool with a shared memoization cache.
// Both may be nil (sequential, uncached). The zero Resolve resolves system
// references through internal/spec.
type Runner struct {
	Pool  *Pool
	Cache *Cache
	// Answers, when non-nil, serves a job that resolves purely (Resolve is
	// nil and Job.Builtin holds) from the answer to an earlier identical
	// request, and keeps the answer of each such job it runs. dsed sets
	// it; NewRunner leaves it nil.
	Answers *Answers
	// Results is the node's content-addressed result store, served on
	// dsed's /v1/store and to cluster coordinators. NewRunner sets it to
	// the cache's memory view; dsed layers its disk store under that with
	// Tiered.
	Results Blobs
	// WorkerID is a stable identity for this runner's node, stamped on
	// every Result it produces (dsed derives it from -worker-id or the
	// hostname). Empty leaves results unattributed.
	WorkerID string
	Resolve  func(ref string) (psioa.PSIOA, error)
}

// NewRunner returns a runner over the given pool and cache, storing
// results in the cache's memory view.
func NewRunner(pool *Pool, cache *Cache) *Runner {
	return &Runner{Pool: pool, Cache: cache, Results: cache.Blobs()}
}

func (r *Runner) resolve(ref string) (psioa.PSIOA, error) {
	cResolved.Inc()
	if r.Resolve != nil {
		return r.Resolve(ref)
	}
	return spec.Resolve(ref)
}

func (r *Runner) resolveAll(refs []string) ([]psioa.PSIOA, error) {
	out := make([]psioa.PSIOA, 0, len(refs))
	for _, ref := range refs {
		a, err := r.resolve(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// options assembles core.Options wired to the runner's pool, cache and the
// job's budget.
func (r *Runner) options(ctx context.Context, b *resilience.Budget) core.Options {
	opt := core.Options{Ctx: ctx, Budget: b, Kernel: r.kernelOpts()}
	if r.Pool != nil {
		opt.Exec = r.Pool
	}
	if r.Cache != nil {
		opt.Memo = r.Cache
	}
	return opt
}

// kernelOpts derives the sched kernel options from the runner's pool: its
// worker count, which the kernels spend on private bounded goroutines.
func (r *Runner) kernelOpts() sched.Options {
	return sched.Options{Workers: r.Pool.Workers()}
}

// budget materialises the job's work budget; nil when the job sets none.
// The budget is created per Run (its wall clock starts now) and shared by
// every worker the job fans out to.
func (j Job) budget() *resilience.Budget {
	if j.BudgetStates <= 0 && j.BudgetTransitions <= 0 && j.BudgetWallMS <= 0 {
		return nil
	}
	return resilience.NewBudget(j.BudgetStates, j.BudgetTransitions, time.Duration(j.BudgetWallMS)*time.Millisecond)
}

// Run executes one job. The context bounds the run; Job.TimeoutMS, when
// set, tightens it further. Errors are classified: context termination
// surfaces as resilience.ErrDeadline/ErrCancelled, budget exhaustion (on
// jobs that cannot degrade) as resilience.ErrBudgetExceeded. The result's
// report comes from a meter that the job's context carries to every layer
// the job reaches, so it counts this job's work only.
func (r *Runner) Run(ctx context.Context, job Job) (*Result, error) {
	if job.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	cJobsRun.Inc()
	start := time.Now()
	m := &obs.Meter{}
	res, err := r.answer(obs.WithMeter(ctx, m), job)
	if err != nil {
		err = resilience.WrapCtx(err)
		cJobsFailed.Inc()
	}
	if res != nil {
		res.WorkerID = r.WorkerID
		rep := m.Report()
		rep.Kind = job.Kind
		rep.WallUS = time.Since(start).Microseconds()
		rep.Workers = r.Pool.Workers()
		rep.BudgetStates, rep.BudgetTransitions = job.BudgetStates, job.BudgetTransitions
		res.Report = rep
	}
	return res, err
}

// RunSafe is Run behind a panic isolation boundary: a panicking job
// becomes a *resilience.PanicError instead of killing the caller. The
// daemon's handlers and the async store run jobs through it.
func (r *Runner) RunSafe(ctx context.Context, job Job) (res *Result, err error) {
	defer resilience.RecoverTo(&err)
	return r.Run(ctx, job)
}

// answer serves the job from the answer store when it resolves purely and
// an earlier run of the same request stored its result; otherwise it runs
// the job and stores the result. Errors, budget failures and partial
// results are never stored.
func (r *Runner) answer(ctx context.Context, job Job) (*Result, error) {
	if err := resilience.FireErr(resilience.FaultJobTransient); err != nil {
		return nil, err
	}
	var req []byte
	if r.Answers != nil && r.Resolve == nil && job.Builtin() {
		req = job.canonical()
	}
	if req != nil {
		if res := r.Answers.get(ctx, req, job.Kind); res != nil {
			return res, nil
		}
	}
	res, err := r.dispatch(ctx, job, job.budget())
	if err == nil && req != nil {
		r.Answers.put(ctx, req, res)
	}
	return res, err
}

func (r *Runner) dispatch(ctx context.Context, job Job, bud *resilience.Budget) (*Result, error) {
	switch job.Kind {
	case KindCheck:
		if job.Check == nil {
			return nil, fmt.Errorf("engine: check job without check spec")
		}
		rep, err := r.check(ctx, job.Check, bud)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindCheck, Check: rep}, nil
	case KindSimulate:
		if job.Simulate == nil {
			return nil, fmt.Errorf("engine: simulate job without simulate spec")
		}
		sr, err := r.simulate(ctx, job.Simulate, bud)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindSimulate, Simulate: sr}, nil
	case KindDescribe:
		if job.Describe == nil {
			return nil, fmt.Errorf("engine: describe job without describe spec")
		}
		dr, err := r.describeSystems(ctx, job.Describe, bud)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: KindDescribe, Describe: dr}, nil
	default:
		return nil, fmt.Errorf("engine: unknown job kind %q", job.Kind)
	}
}

// Check resolves the spec and runs core.Implements on the runner's pool and
// cache. The report is identical to a sequential, uncached run.
func (r *Runner) Check(ctx context.Context, cs *CheckSpec) (*core.Report, error) {
	return r.check(ctx, cs, nil)
}

func (r *Runner) check(ctx context.Context, cs *CheckSpec, bud *resilience.Budget) (*core.Report, error) {
	if cs.Left == "" || cs.Right == "" || len(cs.Envs) == 0 {
		return nil, fmt.Errorf("engine: check needs left, right and at least one env")
	}
	a, err := r.resolve(cs.Left)
	if err != nil {
		return nil, err
	}
	b, err := r.resolve(cs.Right)
	if err != nil {
		return nil, err
	}
	envs, err := r.resolveAll(cs.Envs)
	if err != nil {
		return nil, err
	}
	schema, err := SchemaByName(cs.Schema, cs.Templates)
	if err != nil {
		return nil, err
	}
	ins, err := InsightByName(cs.Insight)
	if err != nil {
		return nil, err
	}
	opt := r.options(ctx, bud)
	opt.Envs = envs
	opt.Schema = schema
	opt.Insight = ins
	opt.Eps = cs.Eps
	opt.Q1 = cs.Q1
	opt.Q2 = cs.Q2
	opt.MaxDepth = cs.MaxDepth
	return core.Implements(a, b, opt)
}

// Simulate composes the referenced systems, resolves non-determinism with
// the requested scheduler and computes the exact answer on the route
// insight.Exact picks (or a Monte-Carlo estimate when Samples > 0),
// reusing the cached answer of a repeated tree-route request.
func (r *Runner) Simulate(ctx context.Context, ss *SimulateSpec) (*SimulateResult, error) {
	return r.simulate(ctx, ss, nil)
}

func (r *Runner) simulate(ctx context.Context, ss *SimulateSpec, bud *resilience.Budget) (*SimulateResult, error) {
	if len(ss.Systems) == 0 {
		return nil, fmt.Errorf("engine: simulate needs at least one system")
	}
	if err := resilience.CtxError(ctx); err != nil {
		return nil, err
	}
	auts, err := r.resolveAll(ss.Systems)
	if err != nil {
		return nil, err
	}
	w, err := psioa.Compose(auts...)
	if err != nil {
		return nil, err
	}
	if err := psioa.Validate(w, 200000); err != nil {
		return nil, err
	}
	s, err := SchedByName(w, ss.Sched, ss.Order, ss.Bound)
	if err != nil {
		return nil, err
	}
	ins, err := InsightByName(ss.Insight)
	if err != nil {
		return nil, err
	}
	depth := ss.MaxDepth
	if depth <= 0 {
		depth = 4*ss.Bound + 16
	}
	if ss.Samples > 0 {
		// Index-substream sampling: the estimate is identical for any
		// -workers setting (including 1), deterministic per seed.
		stream := rng.New(ss.Seed)
		d, err := insight.SampleOpts(ctx, w, s, ins, stream, depth, ss.Samples, bud, r.kernelOpts())
		if err != nil {
			return nil, err
		}
		return &SimulateResult{InsightID: ins.ID, Executions: ss.Samples, TotalMass: d.Total(), Outcomes: outcomes(d)}, nil
	}
	a, err := r.Cache.Exact(ctx, w, s, ins, depth, bud, r.kernelOpts(), true)
	if err != nil && (a == nil || !resilience.IsBudget(err)) {
		return nil, err
	}
	res := &SimulateResult{Exact: true, InsightID: ins.ID, Executions: a.Executions, TotalMass: a.Total, MaxLen: a.MaxLen, Outcomes: outcomes(a.Image)}
	if err != nil {
		// Graceful degradation: a budget-bounded stop leaves an exact
		// sub-probability prefix of ε_σ, which is a usable answer for a
		// simulation (unlike for a check). Report it flagged Partial
		// rather than failing the job. The partial answer is never
		// cached, so later unconstrained runs recompute in full.
		res.Partial, res.Degraded = true, err.Error()
	}
	return res, nil
}

// DescribeSystems profiles each referenced system (description lengths,
// per-query work, reachability), plus the Lemma 4.3 composition bound when
// exactly two systems are given.
func (r *Runner) DescribeSystems(ctx context.Context, ds *DescribeSpec) (*DescribeResult, error) {
	return r.describeSystems(ctx, ds, nil)
}

func (r *Runner) describeSystems(ctx context.Context, ds *DescribeSpec, bud *resilience.Budget) (*DescribeResult, error) {
	if len(ds.Systems) == 0 {
		return nil, fmt.Errorf("engine: describe needs at least one system")
	}
	limit := ds.Limit
	if limit <= 0 {
		limit = 100000
	}
	out := &DescribeResult{}
	auts := make([]psioa.PSIOA, 0, len(ds.Systems))
	// bs[i] is B(auts[i]) as a plain PSIOA, the component bound of the
	// composition report: a PCA's description adds Def 4.2's components
	// to the lengths Def 4.1 counts.
	bs := make([]int, 0, len(ds.Systems))
	for _, ref := range ds.Systems {
		if err := resilience.CtxError(ctx); err != nil {
			return nil, err
		}
		a, err := r.resolve(ref)
		if err != nil {
			return nil, err
		}
		auts = append(auts, a)
		// One walk under the job's context and budget describes the
		// system, measures its query work and counts what it reaches.
		d, err := bounded.DescribeCtx(ctx, a, limit, bud)
		if err != nil {
			return nil, err
		}
		bs = append(bs, d.PSIOABound())
		out.Systems = append(out.Systems, SystemDescription{
			Ref:            ref,
			Description:    d.String(),
			QueryMaxBits:   d.QueryMaxBits,
			QueryTotalBits: d.QueryTotalBits,
			States:         d.States,
			Actions:        d.Actions,
			Truncated:      d.Truncated,
		})
	}
	if len(auts) == 2 {
		cb, err := bounded.CompositionBoundFrom(ctx, bs[0], bs[1], auts[0], auts[1], limit, bud)
		if err != nil {
			return nil, err
		}
		out.CompositionBound = cb.String()
	}
	return out, nil
}

// outcomes renders a distribution as rows sorted by probability descending,
// key ascending — the canonical presentation order of the CLI tools.
func outcomes(d *measure.Dist[string]) []SimOutcome {
	keys := d.Support()
	out := make([]SimOutcome, 0, len(keys))
	for _, k := range keys {
		out = append(out, SimOutcome{Key: k, P: d.P(k)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// SchemaByName builds a scheduler schema from its CLI/HTTP name.
func SchemaByName(name string, templates [][]string) (sched.Schema, error) {
	switch name {
	case "", "oblivious":
		return &sched.ObliviousSchema{}, nil
	case "basic":
		return sched.BasicSchema{}, nil
	case "priority":
		if len(templates) == 0 {
			return nil, fmt.Errorf("engine: priority schema needs at least one template")
		}
		return &sched.PrefixPrioritySchema{Templates: templates}, nil
	default:
		return nil, fmt.Errorf("engine: unknown schema %q", name)
	}
}

// InsightByName builds an insight function from its CLI/HTTP name:
// trace | final | accept:<action> | print:<prefix>. The final insight is
// state-local, so depth-oblivious schedulers compute it on the
// state-collapsed DAG kernel.
func InsightByName(name string) (insight.Insight, error) {
	switch {
	case name == "" || name == "trace":
		return insight.Trace(), nil
	case name == "final":
		return insight.Final(), nil
	case strings.HasPrefix(name, "accept:"):
		return insight.Accept(psioa.Action(strings.TrimPrefix(name, "accept:"))), nil
	case strings.HasPrefix(name, "print:"):
		return insight.Print(strings.TrimPrefix(name, "print:")), nil
	default:
		return insight.Insight{}, fmt.Errorf("engine: unknown insight %q", name)
	}
}

// SchedByName builds a scheduler for w from its CLI/HTTP name.
func SchedByName(w psioa.PSIOA, name string, order []string, bound int) (sched.Scheduler, error) {
	acts := make([]psioa.Action, 0, len(order))
	for _, o := range order {
		acts = append(acts, psioa.Action(strings.TrimSpace(o)))
	}
	switch name {
	case "", "greedy":
		return &sched.Greedy{A: w, Bound: bound, LocalOnly: true}, nil
	case "random":
		return &sched.Random{A: w, Bound: bound, LocalOnly: true}, nil
	case "priority":
		return &sched.Priority{A: w, Order: acts, Bound: bound, LocalOnly: true}, nil
	case "sequence":
		return &sched.Sequence{A: w, Acts: acts, LocalOnly: true}, nil
	default:
		return nil, fmt.Errorf("engine: unknown scheduler %q", name)
	}
}
