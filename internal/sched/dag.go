package sched

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/intern"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
)

// Observability instruments for the state-collapsed DAG kernel. The nodes
// counter measures the collapsed workload: on converging automata it stays
// O(|reachable states| × depth) where the tree kernel's step counter grows
// with the number of distinct executions.
var (
	cDagCalls = obs.C("sched.measure.dag.calls")
	cDagNodes = obs.C("sched.measure.dag.nodes")
)

// DepthOblivious is the capability interface of schedulers whose choice
// depends only on the fragment's last state and length — the oblivious
// schema the paper singles out as sufficient for emulation correctness
// (§4.4). For such a scheduler every fragment with equal (lstate, depth)
// receives the same choice, so the execution tree of ε_σ collapses to a
// DAG over (state, depth) classes and aggregate quantities — total mass,
// halting mass, any state-local image — can be propagated forward in
// O(|reachable states| × depth) instead of O(branching^depth).
//
// Implementations must guarantee Choose(α) == ChooseAt(lstate(α), |α|).
type DepthOblivious interface {
	Scheduler
	// ChooseAt returns σ(α) for any fragment α with lstate(α) = q and
	// |α| = depth.
	ChooseAt(q psioa.State, depth int) *Choice
}

// ChooseAt implements DepthOblivious: step i deterministically triggers
// Acts[i] when enabled at q and halts otherwise.
func (s *Sequence) ChooseAt(q psioa.State, depth int) *Choice {
	if depth >= len(s.Acts) {
		return haltChoice
	}
	if !enabledHas(s.A.Sig(q), s.Acts[depth], s.LocalOnly) {
		return haltChoice
	}
	return diracChoice(s.Acts[depth])
}

// ChooseAt implements DepthOblivious: uniform over the actions enabled at
// q, halting at the bound.
func (r *Random) ChooseAt(q psioa.State, depth int) *Choice {
	if depth >= r.Bound {
		return haltChoice
	}
	enabled := enabledSorted(r.A.Sig(q), r.LocalOnly)
	if len(enabled) == 0 {
		return haltChoice
	}
	return uniformChoice(enabled)
}

// ChooseAt implements DepthOblivious: the first enabled action of the
// priority order at q, halting at the bound.
func (p *Priority) ChooseAt(q psioa.State, depth int) *Choice {
	if depth >= p.Bound {
		return haltChoice
	}
	sig := p.A.Sig(q)
	for _, a := range p.Order {
		if enabledHas(sig, a, p.LocalOnly) {
			return diracChoice(a)
		}
	}
	return haltChoice
}

// ChooseAt implements DepthOblivious: the lexicographically-first enabled
// action at q, halting at the bound.
func (g *Greedy) ChooseAt(q psioa.State, depth int) *Choice {
	if depth >= g.Bound {
		return haltChoice
	}
	enabled := enabledSorted(g.A.Sig(q), g.LocalOnly)
	if len(enabled) == 0 {
		return haltChoice
	}
	return diracChoice(enabled[0])
}

// boundedOblivious adapts Bounded over a depth-oblivious inner scheduler:
// the wrapper consults only the depth, so obliviousness is preserved.
type boundedOblivious struct {
	*Bounded
	inner DepthOblivious
}

func (b *boundedOblivious) ChooseAt(q psioa.State, depth int) *Choice {
	if depth >= b.B {
		return haltChoice
	}
	return b.inner.ChooseAt(q, depth)
}

// AsDepthOblivious reports whether s exposes the DepthOblivious capability,
// unwrapping Bounded around an oblivious inner scheduler. The DAG kernel
// and the FDist routing use it to pick the collapsed fast path
// automatically; schedulers that inspect the fragment itself (TaskSchedule,
// FuncSched, ViewScheduler, Mix over arbitrary inners) fall back to the
// exact tree expansion.
func AsDepthOblivious(s Scheduler) (DepthOblivious, bool) {
	switch x := s.(type) {
	case *Bounded:
		inner, ok := AsDepthOblivious(x.Inner)
		if !ok {
			return nil, false
		}
		return &boundedOblivious{Bounded: x, inner: inner}, true
	case DepthOblivious:
		return x, true
	}
	return nil, false
}

// dagHalt is one (state, depth) halting class with its aggregated mass.
type dagHalt struct {
	q     psioa.State
	depth int
	p     float64
}

// DAGMeasure is the state-collapsed form of ε_σ produced by MeasureDAGOpts:
// halting mass aggregated per (state, depth) class, recorded in propagation
// order (depth ascending, states sorted within a depth). It supports every
// aggregate that does not need individual execution fragments — total mass,
// max length, state-local images; cones and prefix enumeration need the
// tree kernel. On the dyadic workloads pinned in equivalence_test.go all
// float sums are exact, so the aggregates agree bit for bit with the tree
// kernel's; in general they agree up to float summation order.
type DAGMeasure struct {
	halts  []dagHalt
	total  float64
	maxLen int
}

// Total returns the aggregated halting mass; 1 for schedulers that always
// eventually halt. The sum accumulates in propagation order, which is
// deterministic.
func (dm *DAGMeasure) Total() float64 { return dm.total }

// MaxLen returns the depth of the deepest halting class.
func (dm *DAGMeasure) MaxLen() int { return dm.maxLen }

// Classes returns the number of (state, depth) halting classes — the
// collapsed analogue of ExecMeasure.Len (which counts executions).
func (dm *DAGMeasure) Classes() int { return len(dm.halts) }

// ForEach visits every halting class in deterministic propagation order.
func (dm *DAGMeasure) ForEach(visit func(q psioa.State, depth int, p float64)) {
	for _, h := range dm.halts {
		visit(h.q, h.depth, h.p)
	}
}

// Image returns the image measure of ε_σ under a state-local functional —
// the collapsed analogue of ExecMeasure.Image for insights that depend only
// on (lstate, depth). Mass accumulates in propagation order.
func (dm *DAGMeasure) Image(f func(q psioa.State, depth int) string) *measure.Dist[string] {
	d := measure.New[string]()
	for _, h := range dm.halts {
		d.Add(f(h.q, h.depth), h.p)
	}
	return d
}

// MeasureDAGOpts computes the state-collapsed form of ε_σ by
// forward-propagating aggregated state mass level by level: all fragments
// sharing (lstate, depth) receive the same choice from a depth-oblivious
// scheduler, so they are merged into one node. Validation (sub-probability
// choices, enabled actions, the maxDepth guard) and pruning mirror
// MeasureOpts; cancellation and budgets thread through the same checkpoint
// with the same typed sentinels, and a budget-bounded stop returns the
// sound sub-probability prefix aggregated so far. The propagation itself
// stays sequential (the collapsed workload rarely warrants sharding), but
// a Stats collector receives per-level rows — one shard per level with the
// nodes expanded and the level's wall time — and the dag phase totals, so
// run reports cover DAG-routed jobs too.
func MeasureDAGOpts(ctx context.Context, a psioa.PSIOA, s DepthOblivious, maxDepth int, b *resilience.Budget, o Options) (*DAGMeasure, error) {
	sp := obs.Begin("sched.measure.dag", s.Name())
	defer sp.End()
	defer obs.Time("sched.measure.dag.us")()
	cDagCalls.Inc()
	if err := resilience.FireDelay(ctx, resilience.FaultSlowOp); err != nil {
		return nil, err
	}
	collect := o.Stats != nil
	var callStart time.Time
	if collect {
		callStart = time.Now()
	}
	dm := &DAGMeasure{}
	start := a.Start()
	if maxDepth <= 0 {
		// Depth 0 admits only the empty execution: ε_σ is the Dirac measure
		// on the start state, exactly as in MeasureOpts.
		dm.halts = append(dm.halts, dagHalt{q: start, depth: 0, p: 1})
		dm.total = 1
		return dm, nil
	}
	ck := resilience.NewCheckpoint(ctx, b)
	// Interned core: states get dense per-call IDs on first touch, and the
	// two frontier mass vectors are plain slices indexed by ID — no
	// string-keyed map in the propagation loop. Level membership is tracked
	// by an epoch mark (not mass != 0), so a sum that underflows to zero
	// cannot change the insertion order the pre-interning map kernel had.
	// First touch in an epoch assigns rather than accumulates, which also
	// retires stale mass left from two levels ago when the vectors swap.
	tbl := intern.NewTable(64)
	startID := tbl.ID(string(start))
	curMass := []float64{1}
	nextMass := []float64{0}
	seenEpoch := []uint32{0}
	epoch := uint32(0)
	order := []uint32{startID}
	var nextOrder []uint32
	// succIDs memoizes the interned sorted support of each transition
	// distribution. Dists are pointer-stable (automata cache them), so a
	// state revisited across levels interns its successors once.
	succIDs := make(map[*measure.Dist[psioa.State]][]uint32)
	var err, stopped error
	var nodes int64
outer:
	for d := 0; len(order) > 0; d++ {
		var levelStart time.Time
		levelNodes := nodes
		if collect {
			levelStart = time.Now()
		}
		epoch++
		nextOrder = nextOrder[:0]
		for _, qid := range order {
			m := curMass[qid]
			if m < pruneBelow {
				continue
			}
			if stopped = ck.Step(1, 0); stopped != nil {
				break outer
			}
			nodes++
			q := psioa.State(tbl.Str(qid))
			choice := s.ChooseAt(q, d)
			if !choice.IsSubProb() {
				err = fmt.Errorf("sched: scheduler %q returned mass %v > 1 at state %q depth %d: %w", s.Name(), choice.Total(), q, d, ErrOverMass)
				break outer
			}
			if halt := choice.Deficit(); halt > pruneBelow {
				dm.halts = append(dm.halts, dagHalt{q: q, depth: d, p: m * halt})
				dm.total += m * halt
				if d > dm.maxLen {
					dm.maxLen = d
				}
			}
			if choice.Total() <= pruneBelow {
				continue
			}
			if d >= maxDepth {
				err = fmt.Errorf("sched: scheduler %q schedules past depth %d at state %q: %w", s.Name(), maxDepth, q, ErrDepthExceeded)
				break outer
			}
			sig := a.Sig(q)
			var kids int64
			acts, aps := choice.SupportAndProbs()
			for ai, act := range acts {
				pa := aps[ai]
				if pa <= 0 {
					continue
				}
				if !sig.Has(act) {
					err = fmt.Errorf("sched: scheduler %q chose disabled action %q at state %q depth %d: %w", s.Name(), act, q, d, ErrDisabledAction)
					break outer
				}
				resilience.FirePanic(resilience.FaultTransitionPanic)
				eta := a.Trans(q, act)
				ids, ok := succIDs[eta]
				if !ok {
					qs, _ := eta.SupportAndProbs()
					ids = make([]uint32, len(qs))
					for i, q2 := range qs {
						ids[i] = tbl.ID(string(q2))
					}
					succIDs[eta] = ids
				}
				for n := tbl.Len(); len(curMass) < n; {
					curMass = append(curMass, 0)
					nextMass = append(nextMass, 0)
					seenEpoch = append(seenEpoch, 0)
				}
				_, pqs := eta.SupportAndProbs()
				for qi, q2id := range ids {
					pq := pqs[qi]
					if pq <= 0 {
						continue
					}
					// Mass accumulates in (source state, action, successor)
					// sorted order — deterministic for a fixed workload.
					if seenEpoch[q2id] != epoch {
						seenEpoch[q2id] = epoch
						nextOrder = append(nextOrder, q2id)
						nextMass[q2id] = m * pa * pq
					} else {
						nextMass[q2id] += m * pa * pq
					}
					kids++
				}
			}
			if stopped = ck.Step(0, kids); stopped != nil {
				break outer
			}
		}
		if collect {
			wall := time.Since(levelStart).Microseconds()
			o.Stats.recordLevel([]int64{int64(len(order))}, []int64{nodes - levelNodes}, []int64{wall})
			o.Stats.recordDepth(d)
		}
		sort.Slice(nextOrder, func(i, j int) bool { return tbl.Str(nextOrder[i]) < tbl.Str(nextOrder[j]) })
		curMass, nextMass = nextMass, curMass
		order, nextOrder = nextOrder, order[:0]
	}
	if err == nil && stopped == nil {
		stopped = ck.Finish()
	}
	if collect {
		o.Stats.recordCall("dag", time.Since(callStart).Microseconds(), nodes)
	}
	cDagNodes.Add(nodes)
	if err != nil {
		return nil, err
	}
	if stopped != nil {
		if resilience.IsBudget(stopped) {
			// Graceful degradation: the classes aggregated so far carry an
			// exact sub-probability prefix of ε_σ's halting mass.
			return dm, stopped
		}
		return nil, stopped
	}
	return dm, nil
}
