// Package insight implements insight functions (Def 3.4), the image measure
// f-dist (Def 3.5), the balanced-scheduler relation S^{≤ε} (Def 3.6) and the
// stability-by-composition property (Def 3.7).
//
// An insight function f_{(E,A)} maps executions of E‖A into a measurable
// arrival space G_E that is shared between f_{(E,A)} and f_{(E,B)}, so that
// the external perceptions of two systems can be compared. All insights here
// produce canonical strings, so G_E is a countable discrete space.
//
// The implemented insights (trace, accept, print, action-set restriction)
// are all functions of the execution's action sequence together with the
// external status of each action at its occurrence. Because composition in
// this framework is flattening (internal/psioa), E‖(B‖A) and (E‖B)‖A are
// the same automaton, and all these insights are stable by composition in
// the sense of Def 3.7 — which TestStability verifies empirically.
//
// Each of them is defined once, by a step factoring: Init, its value on a
// zero-length execution, and Step(v, a, ext), the value of α⌢(a, q′)
// computed from v, the value of α, and ext, whether a is external at
// lstate(α) — v extended by a when a is external and passes the insight's
// filter, else v unchanged. Apply is Step folded along the execution.
// Image folds Step over an expanded tree instead, one step per tree node
// and one signature read per distinct step, so no execution's trace is
// rebuilt from its root; an internal step returns its parent's string and
// allocates nothing; Exact folds Step along the state-collapsed DAG.
// Final is state-local instead (StateLocal) and has no step factoring.
package insight

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Observability instruments: every image of a measure — FDist's, and any
// exact image through Image — counts each execution in the measure's
// support (each (state, depth) class on the DAG route), so evals counts the
// executions imaged across the run, also when a step factoring folds the
// image over the tree and applies no probe to a whole execution.
var (
	cProbeCalls = obs.C("insight.probe.calls")
	cProbeEvals = obs.C("insight.probe.evals")
	cDistances  = obs.C("insight.distance.calls")
)

// Insight is an insight function: a measurable map from executions of the
// composed system W = E‖A to the arrival space G_E (strings). The composed
// automaton is passed explicitly so insights can consult signatures (e.g.
// to restrict to external actions).
type Insight struct {
	// ID identifies the insight in reports.
	ID string
	// Apply maps an execution of w to an element of G_E.
	Apply func(w psioa.PSIOA, alpha *psioa.Frag) string
	// StateLocal, when set, is the state-local factoring of Apply: it must
	// satisfy Apply(w, α) == StateLocal(w, lstate(α), |α|) for every
	// execution α. FDistOpts uses it to route depth-oblivious schedulers
	// through the state-collapsed DAG kernel, which never materialises
	// individual fragments. Trace-based insights leave it nil.
	StateLocal func(w psioa.PSIOA, q psioa.State, depth int) string
	// Init and Step, when Step is set, are the step factoring of Apply:
	// Init is the value of every zero-length execution, and Step(v, a, ext)
	// the value of α⌢(a, q′) given v, α's value, and whether a is external
	// in w's signature at lstate(α). Apply must be Step folded along the
	// execution from Init. Image steps each node of the expansion tree
	// once, from its parent's value, instead of applying Apply to every
	// halted execution; Exact's DAG pass calls Step once per (value,
	// transition) pair of the state-collapsed DAG.
	Init string
	Step func(prev string, a psioa.Action, ext bool) string
}

// stepped returns the insight defined by its step factoring, with Apply
// the fold of step along the execution. needs(v, a) reports whether ext
// can change step(v, a, ext); where it cannot, Apply skips the signature
// read.
func stepped(id, init string, needs func(prev string, a psioa.Action) bool, step func(prev string, a psioa.Action, ext bool) string) Insight {
	var fold func(w psioa.PSIOA, f *psioa.Frag) string
	fold = func(w psioa.PSIOA, f *psioa.Frag) string {
		p := f.Parent()
		if p == nil {
			return init
		}
		v, a := fold(w, p), f.ActionAt(f.Len()-1)
		return step(v, a, needs(v, a) && external(w, p.LState(), a))
	}
	return Insight{ID: id, Apply: fold, Init: init, Step: step}
}

// external reports whether a is external in w's signature at q: whether an
// occurrence of a leaving q belongs to the trace (Def 2.2).
func external(w psioa.PSIOA, q psioa.State, a psioa.Action) bool {
	sig := w.Sig(q)
	return sig.In.Has(a) || sig.Out.Has(a)
}

// noTrace is the encoding of the empty trace.
var noTrace = codec.EncodeTuple(nil)

// Trace is the trace insight: the full external trace of the composed
// system, encoded as a codec tuple. It is the classic insight of
// I/O-automata implementation.
func Trace() Insight {
	return subtrace("trace", nil)
}

// subtrace returns the insight recording the subsequence of trace actions
// that keep accepts — the whole trace when keep is nil.
func subtrace(id string, keep func(psioa.Action) bool) Insight {
	kept := func(_ string, a psioa.Action) bool { return keep == nil || keep(a) }
	return stepped(id, noTrace, kept, func(prev string, a psioa.Action, ext bool) string {
		if keep != nil && !keep(a) || !ext {
			return prev
		}
		return codec.AppendToTuple(prev, string(a))
	})
}

// Accept is the accept insight of Canetti et al. [3]: it outputs "1" iff
// the special action acc occurs in the trace of the execution, "0"
// otherwise. The accept action is conventionally an output of the
// environment signalling that it distinguished the real system from the
// ideal one.
func Accept(acc psioa.Action) Insight {
	unseen := func(prev string, a psioa.Action) bool { return prev == "0" && a == acc }
	return stepped("accept("+string(acc)+")", "0", unseen, func(prev string, a psioa.Action, ext bool) string {
		if prev == "0" && a == acc && ext {
			return "1"
		}
		return prev
	})
}

// Print is the print insight of [7]: the subsequence of trace actions whose
// names start with the given prefix (conventionally "print_"). It is the
// insight the paper recommends for extending monotonicity w.r.t. creation
// to secure emulation.
func Print(prefix string) Insight {
	return subtrace("print("+prefix+")", func(a psioa.Action) bool { return strings.HasPrefix(string(a), prefix) })
}

// Restrict is the insight that records the subsequence of trace actions
// belonging to a fixed set — typically the external actions of the
// environment, giving the "what E itself saw" perception.
func Restrict(set psioa.ActionSet) Insight {
	fixed := set.Copy()
	return subtrace("restrict"+fixed.String(), fixed.Has)
}

// Final is the state-local insight recording the final local state of the
// execution. Because it factors through (lstate, depth), Exact computes
// it on the state-collapsed DAG for depth-oblivious schedulers — the
// O(|states| × depth) fast path — while remaining well-defined (via Apply)
// for every scheduler.
func Final() Insight {
	return Insight{
		ID: "final",
		Apply: func(w psioa.PSIOA, alpha *psioa.Frag) string {
			return string(alpha.LState())
		},
		StateLocal: func(w psioa.PSIOA, q psioa.State, depth int) string {
			return string(q)
		},
	}
}

// FDist computes f-dist_{(E,A)}(σ) (Def 3.5): the image measure of ε_σ
// under the insight function, where w is the composed system E‖A and σ a
// scheduler of w. maxDepth guards the exact expansion.
func FDist(w psioa.PSIOA, s sched.Scheduler, f Insight, maxDepth int) (*measure.Dist[string], error) {
	return FDistOpts(nil, w, s, f, maxDepth, nil, sched.Options{})
}

// FDistOpts is FDist with cooperative cancellation, a work budget and
// kernel options, on the route Exact picks. An image of a partial measure
// would silently misreport the perception, so any interruption — budget
// included — returns nil with the classified error.
func FDistOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	a, err := Exact(ctx, w, s, f, maxDepth, b, o, false, nil)
	if err != nil {
		return nil, err
	}
	return a.Image, nil
}

// Answer is an exact answer about ε_σ: its image under an insight (Def
// 3.5) and the halted executions, total mass and longest execution that a
// simulation reports (zero where Exact answered a state-local insight
// without agg). It is immutable once returned.
type Answer struct {
	Image      *measure.Dist[string]
	Executions int
	Total      float64
	MaxLen     int
}

// TreeMemo returns an answer it stored for the question, or calls expand
// and may store what it returns without error.
type TreeMemo func(expand func() (*Answer, error)) (*Answer, error)

// Exact is the one exact route: every exact image and aggregate of ε_σ, a
// check's or a simulation's, is decided and computed here.
//
//   - DAG: under a depth-oblivious scheduler with no budget in force (b nil
//     and no resilience.DefaultBudget), a state-local or stepped f takes one
//     state-collapsed pass, which answers when sched.DAGMeasure.Dyadic
//     holds, bit for bit as the tree would.
//   - State-local images: under a depth-oblivious scheduler a state-local
//     image is the pass's, dyadic or not, budget or not; without agg (a
//     check) the pass answers alone.
//   - Tree: everything else expands the tree under b, through memo if not
//     nil; a budgeted job does so before any pass, so its partial answer
//     (returned with the budget error) and its error texts are the tree's.
//
// agg asks for the aggregates. A DAG answer never reaches memo.
func Exact(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f Insight, maxDepth int, b *resilience.Budget, o sched.Options, agg bool, memo TreeMemo) (*Answer, error) {
	c := obs.Enter(ctx, obs.LayerFDist, f.ID)
	defer c.End()
	dob, oblivious := sched.AsDepthOblivious(s)
	local := oblivious && f.StateLocal != nil
	var img *measure.Dist[string] // the pass's state-local image
	if local && !agg || oblivious && (local || f.Step != nil) && b == nil && resilience.DefaultBudget() == nil {
		dm, dimg, err := dag(ctx, w, dob, f, maxDepth, b, o)
		if local && !agg {
			if err != nil {
				return nil, err
			}
			return &Answer{Image: dimg}, nil
		}
		if err == nil && dm.Dyadic() {
			return &Answer{Image: dimg, Executions: dm.Executions(), Total: dm.Total(), MaxLen: dm.MaxLen()}, nil
		}
		img = dimg
	}
	expand := func() (*Answer, error) {
		em, err := sched.MeasureOpts(ctx, w, s, maxDepth, b, o)
		if em == nil {
			return nil, err
		}
		a := &Answer{Image: img, Executions: em.Len(), Total: em.Total(), MaxLen: em.MaxLen()}
		switch {
		case err != nil || !local:
			a.Image = Image(w, em, f)
			probe(s, f, a.Image)
		case img == nil:
			if _, a.Image, err = dag(ctx, w, dob, f, maxDepth, b, o); err != nil {
				return nil, err
			}
		}
		return a, err
	}
	if memo == nil {
		return expand()
	}
	return memo(expand)
}

// dag runs one state-collapsed pass for f: a state-local f images the
// (state, depth) classes; a stepped one is folded along the DAG and has no
// image unless the pass is dyadic.
func dag(ctx context.Context, w psioa.PSIOA, s sched.DepthOblivious, f Insight, maxDepth int, b *resilience.Budget, o sched.Options) (*sched.DAGMeasure, *measure.Dist[string], error) {
	var fold *sched.Fold
	if f.StateLocal == nil {
		fold = &sched.Fold{Init: f.Init, Ext: func(q psioa.State, a psioa.Action) bool { return external(w, q, a) }, Step: f.Step}
	}
	dm, err := sched.MeasureDAGFold(ctx, w, s, maxDepth, fold, b, o)
	if err != nil || fold != nil && !dm.Dyadic() {
		return dm, nil, err
	}
	cProbeCalls.Inc()
	cProbeEvals.Add(int64(dm.Classes()))
	img := dm.FoldImage()
	if fold == nil {
		img = dm.Image(func(q psioa.State, depth int) string { return f.StateLocal(w, q, depth) })
	}
	probe(s, f, img)
	return dm, img, nil
}

// probe reports a computed image to the active trace.
func probe(s sched.Scheduler, f Insight, img *measure.Dist[string]) {
	if tr := obs.Active(); tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindProbe, Name: f.ID, Attr: s.Name(), N: int64(img.Len())})
	}
}

// Image returns the image of the execution measure em of w under f —
// f-dist (Def 3.5) on an expanded tree. An insight with a step factoring is
// folded over the expansion tree (sched.ExecMeasure.ImageFold), one step
// per tree node; any other is applied to each halted execution. Both give
// the same keys and the same floats. Every exact tree image goes through
// here, so the probe counters count each of them.
func Image(w psioa.PSIOA, em *sched.ExecMeasure, f Insight) *measure.Dist[string] {
	cProbeCalls.Inc()
	cProbeEvals.Add(int64(em.Len()))
	if f.Step != nil {
		return em.ImageFold(f.Init, func(q psioa.State, a psioa.Action) bool { return external(w, q, a) }, f.Step)
	}
	return em.Image(func(fr *psioa.Frag) string { return f.Apply(w, fr) })
}

// SampleOpts estimates f-dist_{(E,A)}(σ) from n samples with
// sched.SampleImageOpts, routed the way Exact routes the exact image: a
// state-local insight under a depth-oblivious scheduler folds each sample
// to its final (state, depth) through sched.SampleStateImageOpts and builds
// no fragment. Both routes draw the same samples, so the estimate does not
// depend on the route.
func SampleOpts(ctx context.Context, w psioa.PSIOA, s sched.Scheduler, f Insight, stream *rng.Stream, maxDepth, n int, b *resilience.Budget, o sched.Options) (*measure.Dist[string], error) {
	if f.StateLocal != nil {
		if dob, ok := sched.AsDepthOblivious(s); ok {
			return sched.SampleStateImageOpts(ctx, w, dob, stream, maxDepth, n, func(q psioa.State, depth int) string {
				return f.StateLocal(w, q, depth)
			}, b, o)
		}
	}
	return sched.SampleImageOpts(ctx, w, s, stream, maxDepth, n, func(fr *psioa.Frag) string {
		return f.Apply(w, fr)
	}, b, o)
}

// Distance returns the Def 3.6 distance between two external perceptions:
// sup over families I of |Σ_i (d2(ζ_i) − d1(ζ_i))|.
func Distance(d1, d2 *measure.Dist[string]) float64 {
	cDistances.Inc()
	return measure.BalancedSup(d1, d2)
}

// Balanced reports whether σ S^{≤ε}_{E,f} σ′ holds (Def 3.6), i.e. whether
// the two schedulers induce external perceptions within ε of each other.
// wA = E‖A with scheduler s1, wB = E‖B with scheduler s2.
func Balanced(wA psioa.PSIOA, s1 sched.Scheduler, wB psioa.PSIOA, s2 sched.Scheduler, f Insight, eps float64, maxDepth int) (bool, float64, error) {
	d1, err := FDist(wA, s1, f, maxDepth)
	if err != nil {
		return false, 0, err
	}
	d2, err := FDist(wB, s2, f, maxDepth)
	if err != nil {
		return false, 0, err
	}
	dist := Distance(d1, d2)
	return dist <= eps+measure.Eps, dist, nil
}

// StabilityReport is the result of an empirical stability-by-composition
// check (Def 3.7).
type StabilityReport struct {
	// DistWithContext is the Def 3.6 distance computed with B counted as
	// part of the environment (E‖B observing A₁ vs A₂).
	DistWithContext float64
	// DistEnvOnly is the distance computed with the environment alone
	// (E observing B‖A₁ vs B‖A₂) — for stable insights this is never
	// larger.
	DistEnvOnly float64
}

// CheckStability empirically checks Def 3.7 on a concrete quadruple
// (A1, A2, B, E) with schedulers σ, σ′: the distinguishing power of E alone
// must not exceed that of E‖B. Thanks to flattening, E‖B‖A1 is a single
// automaton; the two readings differ only in which insight parametrisation
// is used, here expressed by fCtx (perception available to E‖B) and fEnv
// (perception available to E alone).
func CheckStability(e, b, a1, a2 psioa.PSIOA, s1, s2 sched.Scheduler, fEnv, fCtx Insight, maxDepth int) (*StabilityReport, error) {
	w1, err := psioa.Compose(e, b, a1)
	if err != nil {
		return nil, err
	}
	w2, err := psioa.Compose(e, b, a2)
	if err != nil {
		return nil, err
	}
	ctx1, err := FDist(w1, s1, fCtx, maxDepth)
	if err != nil {
		return nil, err
	}
	ctx2, err := FDist(w2, s2, fCtx, maxDepth)
	if err != nil {
		return nil, err
	}
	env1, err := FDist(w1, s1, fEnv, maxDepth)
	if err != nil {
		return nil, err
	}
	env2, err := FDist(w2, s2, fEnv, maxDepth)
	if err != nil {
		return nil, err
	}
	rep := &StabilityReport{
		DistWithContext: Distance(ctx1, ctx2),
		DistEnvOnly:     Distance(env1, env2),
	}
	return rep, nil
}

// Stable reports whether the report witnesses stability: the environment
// alone perceives no more than the environment with context.
func (r *StabilityReport) Stable() bool {
	return r.DistEnvOnly <= r.DistWithContext+measure.Eps
}

// String renders the report.
func (r *StabilityReport) String() string {
	return fmt.Sprintf("dist(E||B)=%.6g dist(E)=%.6g stable=%v", r.DistWithContext, r.DistEnvOnly, r.Stable())
}
