// Package core implements the paper's primary contribution: the approximate
// implementation relation extended to bounded dynamic settings (Def 4.12),
// its transitivity (Theorem 4.16) and composability (Lemmas 4.13–4.14,
// Theorem 4.15), and composable dynamic secure emulation (Def 4.26,
// Theorem 4.30) with the dummy-adversary reduction of Lemma 4.29.
//
// The relation A ≤^{Sch,f}_{p,q1,q2,ε} B quantifies over all p-bounded
// environments and q₁-bounded schedulers: "for every σ there exists a
// q₂-bounded σ′ with σ S^{≤ε}_{E,f} σ′". Two executable renderings are
// provided:
//
//   - Implements: exhaustive search over an enumerable scheduler schema —
//     exact on finite instances, the analogue of model checking;
//   - ImplementsWitness: a constructive witness σ ↦ σ′ is supplied (as the
//     paper's proofs do) and only the balance condition is verified.
//
// Both renderings are embarrassingly parallel over (environment, scheduler)
// pairs. The Options.Exec and Options.Memo hooks let callers fan the pair
// work out to a worker pool and memoize the f-dist answers of the
// expansion tree (see internal/engine); the produced Report is byte-identical between
// sequential and parallel runs.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
)

// Observability instruments for the implementation-relation checks — the
// outermost loops of every emulation workload.
var (
	cImplCalls = obs.C("core.implements.calls")
	cImplPairs = obs.C("core.implements.pairs")
	cEmuRounds = obs.C("core.emulation.rounds")
)

// emitPair records one decided (environment, scheduler) pair.
func emitPair(tr obs.Tracer, env, sched string, dist float64, ok bool) {
	status := "ok"
	if !ok {
		status = "fail"
	}
	tr.Emit(obs.Event{Kind: obs.KindPair, Name: sched, Attr: env + ":" + status, V: dist})
}

// Executor runs n independent tasks, possibly concurrently. fn(i) must be
// safe to call from multiple goroutines for distinct i. Map returns the
// error of the lowest-index failing task (so parallel and sequential runs
// fail identically), or the context error if cancelled. internal/engine.Pool
// is the standard implementation.
type Executor interface {
	Map(ctx context.Context, n int, fn func(i int) error) error
}

// Memo caches f-dist computations across checks, keyed by a canonical
// fingerprint of the composed automaton plus the scheduler's name. The
// returned distributions are shared and must be treated as read-only.
// Implementations must honour ctx, b and o by threading them into the
// underlying computation and must never cache results computed under an
// exhausted budget. internal/engine.Cache is the standard implementation:
// it answers on insight.Exact's route and caches tree answers only.
type Memo interface {
	FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error)
}

// Options configures an implementation-relation check.
type Options struct {
	// Envs is the set of environments to quantify over (the executable
	// stand-in for "every p-bounded environment"; see DESIGN.md §2).
	Envs []psioa.PSIOA
	// Schema enumerates the candidate schedulers (Sch of Def 4.12).
	Schema sched.Schema
	// Insight is the insight function f.
	Insight insight.Insight
	// Eps is the tolerance ε.
	Eps float64
	// Q1 and Q2 bound the schedulers of the left and right systems
	// (Def 4.12's q₁, q₂). Q2 defaults to Q1 when zero.
	Q1, Q2 int
	// MaxDepth guards exact measure expansion; defaults to max(Q1,Q2).
	MaxDepth int
	// Exec fans the per-(environment, scheduler) work out to a worker pool
	// (see internal/engine.Pool). Nil runs sequentially.
	Exec Executor
	// Memo caches f-dist images across repeated checks (see
	// internal/engine.Cache). Nil recomputes everything.
	Memo Memo
	// Ctx cancels long-running checks. Nil means context.Background().
	Ctx context.Context
	// Budget bounds the total work of the check across all pairs (shared
	// by every worker). A check cannot soundly report a verdict from a
	// partial expansion, so an exhausted budget fails the check with an
	// ErrBudgetExceeded-classified error. Nil means unbounded.
	Budget *resilience.Budget
	// Kernel configures the measure kernels themselves: a worker count
	// shards each expansion's frontier (sched.MeasureOpts), on top of the
	// pair-level fan-out of Exec. Measures are byte-identical at every
	// worker count, so reports do not depend on it.
	Kernel sched.Options
}

func (o Options) q2() int {
	if o.Q2 == 0 {
		return o.Q1
	}
	return o.Q2
}

func (o Options) depth() int {
	if o.MaxDepth == 0 {
		d := o.Q1
		if o.q2() > d {
			d = o.q2()
		}
		return d
	}
	return o.MaxDepth
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// fdist computes f-dist through the memo when one is installed, threading
// the check's context, budget and kernel options into the expansion.
func (o Options) fdist(ctx context.Context, w psioa.PSIOA, s sched.Scheduler) (*measure.Dist[string], error) {
	if o.Memo != nil {
		return o.Memo.FDistOpts(ctx, w, s, o.Insight, o.depth(), o.Budget, o.Kernel)
	}
	return insight.FDistOpts(ctx, w, s, o.Insight, o.depth(), o.Budget, o.Kernel)
}

// runTasks executes n tasks through the executor, or sequentially (stopping
// at the first error, checking cancellation between tasks) when none is set.
func (o Options) runTasks(ctx context.Context, n int, fn func(i int) error) error {
	if o.Exec != nil {
		return o.Exec.Map(ctx, n, fn)
	}
	for i := 0; i < n; i++ {
		if err := resilience.CtxError(ctx); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// PairResult records the outcome for one (environment, scheduler) pair.
type PairResult struct {
	// Env and Sched identify the environment and left scheduler.
	Env, Sched string
	// Matched is the name of the right scheduler achieving the best
	// balance (empty if none was found below ε).
	Matched string
	// Dist is the best achieved Def 3.6 distance.
	Dist float64
	// OK reports whether Dist ≤ ε.
	OK bool
}

// Report is the outcome of an implementation-relation check. Pairs are
// always sorted by (Env, Sched), so reports are byte-identical however the
// pair work was scheduled.
type Report struct {
	// Holds reports whether the relation held for every pair.
	Holds bool
	// MaxDist is the largest best-achievable distance over all pairs — the
	// empirical ε of the instance.
	MaxDist float64
	// Pairs holds the per-(environment, scheduler) outcomes.
	Pairs []PairResult
}

// sortPairs orders pair results canonically by (Env, Sched, Matched): the
// deterministic report order shared by the sequential and pooled checkers.
func sortPairs(pairs []PairResult) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Env != pairs[j].Env {
			return pairs[i].Env < pairs[j].Env
		}
		if pairs[i].Sched != pairs[j].Sched {
			return pairs[i].Sched < pairs[j].Sched
		}
		return pairs[i].Matched < pairs[j].Matched
	})
}

// Failures returns the pairs for which no balanced scheduler was found, in
// the report's canonical (Env, Sched) order.
func (r *Report) Failures() []PairResult {
	var out []PairResult
	for _, p := range r.Pairs {
		if !p.OK {
			out = append(out, p)
		}
	}
	return out
}

// String summarises the report.
func (r *Report) String() string {
	return fmt.Sprintf("holds=%v pairs=%d failures=%d maxDist=%.6g", r.Holds, len(r.Pairs), len(r.Failures()), r.MaxDist)
}

// assemble folds per-task pair results into the report in task order and
// establishes the canonical pair ordering.
func (r *Report) assemble(results []PairResult) {
	for _, pr := range results {
		if !pr.OK {
			r.Holds = false
		}
		if pr.Dist > r.MaxDist && !math.IsInf(pr.Dist, 1) {
			r.MaxDist = pr.Dist
		}
		r.Pairs = append(r.Pairs, pr)
	}
	sortPairs(r.Pairs)
}

// rd is one precomputed right-side perception.
type rd struct {
	name string
	dist *measure.Dist[string]
}

// envWork is the per-environment setup shared by the pair tasks.
type envWork struct {
	env    psioa.PSIOA
	wa, wb *psioa.Product
	left   []sched.Scheduler
	right  []sched.Scheduler
	rds    []rd
}

// setup composes every environment with both systems and enumerates the
// schema on the compositions. It is sequential: composition and enumeration
// are cheap relative to measure expansion, and running them up front keeps
// error reporting deterministic.
func setup(a, b psioa.PSIOA, opt Options, needRight bool) ([]*envWork, error) {
	works := make([]*envWork, 0, len(opt.Envs))
	for _, env := range opt.Envs {
		wa, err := psioa.Compose(env, a)
		if err != nil {
			return nil, err
		}
		wb, err := psioa.Compose(env, b)
		if err != nil {
			return nil, err
		}
		left, err := opt.Schema.Enumerate(wa, opt.Q1)
		if err != nil {
			return nil, err
		}
		w := &envWork{env: env, wa: wa, wb: wb, left: left}
		if needRight {
			right, err := opt.Schema.Enumerate(wb, opt.q2())
			if err != nil {
				return nil, err
			}
			w.right = right
			w.rds = make([]rd, len(right))
		}
		works = append(works, w)
	}
	return works, nil
}

// Implements checks A ≤^{Sch,f}_{q1,q2,ε} B exhaustively: for every
// environment E in opt.Envs and every q₁-bounded σ enumerated by the schema
// on E‖A, it searches the schema's q₂-bounded schedulers on E‖B for one
// balanced within ε (Def 4.12). Environments must be partially compatible
// with both A and B.
//
// The search fans out through opt.Exec when set: right-side perceptions are
// computed first (one task per (environment, right scheduler)), then every
// (environment, left scheduler) pair is decided independently. The report
// is identical to the sequential one.
func Implements(a, b psioa.PSIOA, opt Options) (*Report, error) {
	ctx := opt.ctx()
	c := obs.Enter(ctx, obs.LayerImplements, a.ID()+" <= "+b.ID())
	defer c.End()
	cImplCalls.Inc()
	tr := obs.Active()
	works, err := setup(a, b, opt, true)
	if err != nil {
		return nil, err
	}

	// Phase 1: the right-side perceptions, once per (env, right scheduler).
	type rref struct {
		w *envWork
		j int
	}
	var rrefs []rref
	for _, w := range works {
		for j := range w.right {
			rrefs = append(rrefs, rref{w, j})
		}
	}
	err = opt.runTasks(ctx, len(rrefs), func(i int) error {
		r := rrefs[i]
		s2 := r.w.right[r.j]
		d2, err := opt.fdist(ctx, r.w.wb, s2)
		if err != nil {
			return fmt.Errorf("core: right scheduler %s: %w", s2.Name(), err)
		}
		r.w.rds[r.j] = rd{s2.Name(), d2}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: decide every (env, left scheduler) pair against the
	// precomputed right-side perceptions.
	type lref struct {
		w  *envWork
		s1 sched.Scheduler
	}
	var lrefs []lref
	for _, w := range works {
		for _, s1 := range w.left {
			lrefs = append(lrefs, lref{w, s1})
		}
	}
	results := make([]PairResult, len(lrefs))
	err = opt.runTasks(ctx, len(lrefs), func(i int) error {
		t := lrefs[i]
		d1, err := opt.fdist(ctx, t.w.wa, t.s1)
		if err != nil {
			return fmt.Errorf("core: left scheduler %s: %w", t.s1.Name(), err)
		}
		// The inner sweep over right-side perceptions can dwarf the
		// expansions when the schema is large; poll the same checkpoint
		// machinery (without charging state/transition work).
		ck := resilience.NewCheckpoint(ctx, opt.Budget)
		best := math.Inf(1)
		bestName := ""
		for _, r := range t.w.rds {
			if err := ck.Step(0, 0); err != nil {
				return fmt.Errorf("core: matching scheduler %s: %w", t.s1.Name(), err)
			}
			if d := insight.Distance(d1, r.dist); d < best {
				best, bestName = d, r.name
			}
		}
		pr := PairResult{
			Env: t.w.env.ID(), Sched: t.s1.Name(),
			Dist: best, OK: best <= opt.Eps+measure.Eps,
		}
		if pr.OK {
			pr.Matched = bestName
		}
		cImplPairs.Inc()
		if tr.Enabled() {
			emitPair(tr, pr.Env, pr.Sched, pr.Dist, pr.OK)
		}
		results[i] = pr
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Holds: true}
	rep.assemble(results)
	return rep, nil
}

// Witness maps a left scheduler to the right scheduler that matches it —
// the constructive σ ↦ σ′ at the heart of every composability proof in the
// paper. env is the environment, wa = E‖A and wb = E‖B.
type Witness func(env psioa.PSIOA, wa *psioa.Product, s1 sched.Scheduler, wb *psioa.Product) sched.Scheduler

// IdentityWitness returns σ itself — valid whenever E‖A and E‖B have the
// same action alphabet and σ's decisions transfer verbatim (e.g. A and B
// differ only in internal probabilities).
func IdentityWitness() Witness {
	return func(_ psioa.PSIOA, _ *psioa.Product, s1 sched.Scheduler, _ *psioa.Product) sched.Scheduler {
		return s1
	}
}

// ImplementsWitness checks the implementation relation with a constructive
// witness: for every environment and every schema scheduler σ on E‖A, it
// verifies σ S^{≤ε}_{E,f} w(σ). Like Implements, the per-pair balance
// checks fan out through opt.Exec when set.
func ImplementsWitness(a, b psioa.PSIOA, w Witness, opt Options) (*Report, error) {
	ctx := opt.ctx()
	c := obs.Enter(ctx, obs.LayerImplements, a.ID()+" <= "+b.ID()+" (witness)")
	defer c.End()
	cImplCalls.Inc()
	tr := obs.Active()
	works, err := setup(a, b, opt, false)
	if err != nil {
		return nil, err
	}
	// The witness is applied sequentially up front: witnesses may compose
	// automata and are not required to be concurrency-safe.
	type pairTask struct {
		w      *envWork
		s1, s2 sched.Scheduler
	}
	var tasks []pairTask
	for _, ew := range works {
		for _, s1 := range ew.left {
			tasks = append(tasks, pairTask{ew, s1, w(ew.env, ew.wa, s1, ew.wb)})
		}
	}
	results := make([]PairResult, len(tasks))
	err = opt.runTasks(ctx, len(tasks), func(i int) error {
		t := tasks[i]
		d1, err := opt.fdist(ctx, t.w.wa, t.s1)
		if err != nil {
			return err
		}
		d2, err := opt.fdist(ctx, t.w.wb, t.s2)
		if err != nil {
			return err
		}
		dist := insight.Distance(d1, d2)
		ok := dist <= opt.Eps+measure.Eps
		pr := PairResult{Env: t.w.env.ID(), Sched: t.s1.Name(), Matched: t.s2.Name(), Dist: dist, OK: ok}
		cImplPairs.Inc()
		if tr.Enabled() {
			emitPair(tr, pr.Env, pr.Sched, pr.Dist, pr.OK)
		}
		results[i] = pr
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Holds: true}
	rep.assemble(results)
	return rep, nil
}

// ComposeWitnesses chains witnesses along Theorem 4.16 (transitivity): from
// witnesses for A₁ ≤ A₂ and A₂ ≤ A₃, build the witness for A₁ ≤ A₃ with
// ε₁₃ = ε₁₂ + ε₂₃ (the triangle inequality of the Def 3.6 distance). a2 is
// the middle automaton.
func ComposeWitnesses(a2 psioa.PSIOA, w12, w23 Witness) Witness {
	return func(env psioa.PSIOA, wa *psioa.Product, s1 sched.Scheduler, wc *psioa.Product) sched.Scheduler {
		wb := psioa.MustCompose(env, a2)
		s2 := w12(env, wa, s1, wb)
		return w23(env, wb, s2, wc)
	}
}

// ContextWitness lifts a witness for A₁ ≤ A₂ to a witness for
// A₃‖A₁ ≤ A₃‖A₂, following the proof of Lemma 4.13: a scheduler of
// E‖(A₃‖A₁) is literally a scheduler of (E‖A₃)‖A₁ because composition
// flattens, so the witness is invoked with the extended environment E‖A₃.
func ContextWitness(a3 psioa.PSIOA, w Witness) Witness {
	return func(env psioa.PSIOA, wa *psioa.Product, s1 sched.Scheduler, wb *psioa.Product) sched.Scheduler {
		e3 := psioa.MustCompose(env, a3)
		return w(e3, wa, s1, wb)
	}
}

// ComposeContext returns the options for checking A₃‖A₁ ≤ A₃‖A₂ given the
// options used for A₁ ≤ A₂: every environment E is replaced by E (the
// context A₃ travels with the systems), matching Lemma 4.13's statement
// that E‖A₃ is a c_comp(p+p₃)-bounded environment for A₁ and A₂.
func ComposeContext(a3 psioa.PSIOA, a1, a2 psioa.PSIOA) (left, right psioa.PSIOA, err error) {
	l, err := psioa.Compose(a3, a1)
	if err != nil {
		return nil, nil, err
	}
	r, err := psioa.Compose(a3, a2)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}
