package sched

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

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

// sigChooser is the signature form of the built-in depth-oblivious
// schedulers: their choice at (q, depth) reads q only through the
// signature of their own automaton at q, so a step table can hand them a
// signature it fetched once per state (see stepTable.compile).
type sigChooser interface {
	// sigAut returns the automaton whose signatures the choice reads.
	sigAut() psioa.PSIOA
	// horizon returns the depth from which the scheduler halts in every
	// state, and whether below it the choice at a state is the same at
	// every depth.
	horizon() (depth int, depthFree bool)
	// chooseSig returns ChooseAt(q, depth) given sig = sigAut().Sig(q), at
	// a depth below the horizon. It puts mass only on actions sig enables.
	chooseSig(sig psioa.Signature, depth int) *Choice
}

// chooseAt is ChooseAt of a built-in depth-oblivious scheduler: it halts
// from its horizon on and below it reads q's signature.
func chooseAt(sc sigChooser, q psioa.State, depth int) *Choice {
	if h, _ := sc.horizon(); depth >= h {
		return haltChoice
	}
	return sc.chooseSig(sc.sigAut().Sig(q), depth)
}

// ChooseAt implements DepthOblivious: step i deterministically triggers
// Acts[i] when enabled at q and halts otherwise.
func (s *Sequence) ChooseAt(q psioa.State, depth int) *Choice { return chooseAt(s, q, depth) }

func (s *Sequence) sigAut() psioa.PSIOA  { return s.A }
func (s *Sequence) horizon() (int, bool) { return len(s.Acts), false }

func (s *Sequence) chooseSig(sig psioa.Signature, depth int) *Choice {
	if !enabledHas(sig, s.Acts[depth], s.LocalOnly) {
		return haltChoice
	}
	return diracChoice(s.Acts[depth])
}

// ChooseAt implements DepthOblivious: uniform over the actions enabled at
// q, halting at the bound.
func (r *Random) ChooseAt(q psioa.State, depth int) *Choice { return chooseAt(r, q, depth) }

func (r *Random) sigAut() psioa.PSIOA  { return r.A }
func (r *Random) horizon() (int, bool) { return r.Bound, true }

func (r *Random) chooseSig(sig psioa.Signature, _ int) *Choice {
	enabled := enabledSorted(sig, r.LocalOnly)
	if len(enabled) == 0 {
		return haltChoice
	}
	return measure.Uniform(enabled)
}

// ChooseAt implements DepthOblivious: the least enabled action with the
// first prefix of the order that any enabled action has, halting at the
// bound.
func (p *Priority) ChooseAt(q psioa.State, depth int) *Choice { return chooseAt(p, q, depth) }

func (p *Priority) sigAut() psioa.PSIOA  { return p.A }
func (p *Priority) horizon() (int, bool) { return p.Bound, true }

func (p *Priority) chooseSig(sig psioa.Signature, _ int) *Choice {
	for _, prefix := range p.Order {
		if a, ok := leastEnabled(sig, string(prefix), p.LocalOnly); ok {
			return diracChoice(a)
		}
	}
	return haltChoice
}

// ChooseAt implements DepthOblivious: the lexicographically-first enabled
// action at q, halting at the bound.
func (g *Greedy) ChooseAt(q psioa.State, depth int) *Choice { return chooseAt(g, q, depth) }

func (g *Greedy) sigAut() psioa.PSIOA  { return g.A }
func (g *Greedy) horizon() (int, bool) { return g.Bound, true }

func (g *Greedy) chooseSig(sig psioa.Signature, _ int) *Choice {
	least, ok := leastEnabled(sig, "", g.LocalOnly)
	if !ok {
		return haltChoice
	}
	return diracChoice(least)
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
// unwrapping Bounded around an oblivious inner scheduler. The FDist and
// sampling routing use it to pick the collapsed fast paths automatically,
// and the tree and sampling kernels to compile the scheduler's steps into
// a step table; schedulers that inspect the fragment itself (TaskSchedule,
// FuncSched, ViewScheduler, Mix over arbitrary inners) fall back to the
// exact tree expansion and to Choose per step.
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

// Fold is a fragment functional folded along the steps, as the stepped
// insights are (Def 3.4): a zero-length fragment maps to Init, α⌢(a, q′) to
// Step(v, a, Ext(lstate(α), a)) where v is α's value. Under a depth-oblivious
// scheduler, equal (lstate, depth, value) means equal futures and images.
type Fold struct {
	Init string
	Ext  func(q psioa.State, a psioa.Action) bool
	Step func(prev string, a psioa.Action, ext bool) string
}

// dagHalt is one (state, depth, value) halting class with its aggregated
// mass. A pass without a fold has the one value 0.
type dagHalt struct {
	q     psioa.State
	v     uint32
	depth int
	p     float64
}

// DAGMeasure is the state-collapsed form of ε_σ produced by MeasureDAGOpts:
// halting mass aggregated per (state, depth) class — (state, depth, value)
// under a fold — in propagation order (depth ascending, then states sorted,
// then values first-seen). It supports every aggregate that does not need
// individual execution fragments — total mass, max length, state-local and
// fold images; cones and prefix enumeration need the tree kernel. On the
// dyadic workloads pinned in equivalence_test.go all float sums are exact,
// so the aggregates agree bit for bit with the tree kernel's; in general
// they agree up to float summation order.
type DAGMeasure struct {
	halts  []dagHalt
	vals   *intern.Table // the fold's values by ID; nil without a fold
	total  float64
	maxLen int
	execs  int // halted executions: paths into the halting classes
	maxExp int // largest dyadic exponent bound of any path's mass
}

// dagClass is one (state, value) class of a level: its mass, the paths
// into it, and the largest over them of the sum of every factor's dyadicExp.
type dagClass struct {
	q, v       uint32
	m          float64
	paths, exp int
}

// dyadicMax bounds the dyadic exponent of the path masses for which
// Dyadic holds. 2^-dyadicMax must exceed pruneBelow, so that such a path
// is never pruned; TestDyadicMaxAbovePrune checks it.
const dyadicMax = 49

// dyadicExp returns the least e ≥ 0 with x·2^e an integer, for x > 0.
func dyadicExp(x float64) int {
	frac, exp := math.Frexp(x)
	return max(0, 53-exp-bits.TrailingZeros64(uint64(frac*(1<<53))))
}

// Total returns the aggregated halting mass; 1 for schedulers that always
// eventually halt. The sum accumulates in propagation order, which is
// deterministic.
func (dm *DAGMeasure) Total() float64 { return dm.total }

// MaxLen returns the depth of the deepest halting class.
func (dm *DAGMeasure) MaxLen() int { return dm.maxLen }

// Executions returns the number of halted executions: the paths into the
// halting classes.
func (dm *DAGMeasure) Executions() int { return dm.execs }

// Dyadic reports whether every path's mass had a dyadic exponent of at most
// dyadicMax (49). Every path mass is then at least 2^-49 > pruneBelow, so neither the
// DAG nor the tree kernel prunes, and every product and partial sum of
// path masses is exact: Total is the tree's bit for bit in any summation
// order, Executions the tree's Len and MaxLen the tree's MaxLen. A fold
// pass that breaks the rule stops there, its aggregates incomplete.
func (dm *DAGMeasure) Dyadic() bool { return dm.maxExp <= dyadicMax }

// Classes returns the number of halting classes — the collapsed analogue
// of ExecMeasure.Len (which counts executions).
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

// FoldImage returns the image of ε_σ under the pass's fold, as ImageFold
// does on the tree: halting mass summed per value. Nil without a fold.
func (dm *DAGMeasure) FoldImage() *measure.Dist[string] {
	if dm.vals == nil {
		return nil
	}
	d := measure.New[string]()
	for _, h := range dm.halts {
		d.Add(dm.vals.Str(h.v), h.p)
	}
	return d
}

// foldVals interns a fold's values in first-seen order (Init is 0) and
// memoizes the next value per (value, compiled transition), Ext per
// compiled transition: one (state, action) pair.
type foldVals struct {
	f    *Fold
	ids  *intern.Table
	ext  map[*stepTrans]bool
	next map[foldStep]uint32
}

type foldStep struct {
	st *stepTrans
	v  uint32
}

// step returns the value of α⌢(st.act, ·) for α of value v ending in q.
func (fv *foldVals) step(v uint32, q psioa.State, st *stepTrans) uint32 {
	k := foldStep{st, v}
	if n, ok := fv.next[k]; ok {
		return n
	}
	x, ok := fv.ext[st]
	if !ok {
		x = fv.f.Ext(q, st.act)
		fv.ext[st] = x
	}
	n := fv.ids.ID(fv.f.Step(fv.ids.Str(v), st.act, x))
	fv.next[k] = n
	return n
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
// its Call reports per-level rows — one shard per level with the nodes
// expanded and the level's wall time — to the trace and to a meter in
// ctx, as the tree kernel does, so run reports cover DAG-routed jobs too.
func MeasureDAGOpts(ctx context.Context, a psioa.PSIOA, s DepthOblivious, maxDepth int, b *resilience.Budget, o Options) (*DAGMeasure, error) {
	return MeasureDAGFold(ctx, a, s, maxDepth, nil, b, o)
}

// MeasureDAGFold is MeasureDAGOpts carrying a fold f, if not nil: a node
// per (lstate, depth, value), and FoldImage is f's image. It stops,
// without error, at the first path that breaks DAGMeasure.Dyadic's rule.
func MeasureDAGFold(ctx context.Context, a psioa.PSIOA, s DepthOblivious, maxDepth int, f *Fold, b *resilience.Budget, o Options) (*DAGMeasure, error) {
	c := obs.Enter(ctx, obs.LayerDAG, s.Name())
	defer c.End()
	cDagCalls.Inc()
	if err := resilience.FireDelay(ctx, resilience.FaultSlowOp); err != nil {
		return nil, err
	}
	dm := &DAGMeasure{}
	var fv *foldVals
	if f != nil {
		fv = &foldVals{f: f, ids: intern.NewTable(0), ext: map[*stepTrans]bool{}, next: map[foldStep]uint32{}}
		fv.ids.ID(f.Init) // value ID 0
		dm.vals = fv.ids
	}
	start := a.Start()
	if maxDepth <= 0 {
		// Depth 0 admits only the empty execution: ε_σ is the Dirac measure
		// on the start state, exactly as in MeasureOpts.
		dm.halts = append(dm.halts, dagHalt{q: start, depth: 0, p: 1})
		dm.total, dm.execs = 1, 1
		return dm, nil
	}
	ck := resilience.NewCheckpoint(ctx, b)
	// Interned core: the step table gives states dense IDs on first touch
	// (the start state is 0) and compiles each (state, depth) step once,
	// with the IDs of its successors; a level is a slice of (state ID,
	// value ID) classes in first-touch order, found through index.
	tbl := newStepTable(newStepSource(a, s, maxDepth, true))
	defer tbl.release()
	tbl.intern(start) // ID 0
	cur, next := []dagClass{{m: 1, paths: 1}}, []dagClass(nil)
	index := map[uint64]int32{} // state ID<<32 | value ID -> class in next
	var err, stopped error
	var nodes int64
outer:
	for d := 0; len(cur) > 0; d++ {
		lap, levelNodes := c.Lap(), nodes
		next = next[:0]
		clear(index)
		for _, cl := range cur {
			m := cl.m
			if m < pruneBelow {
				continue
			}
			if fv != nil && !dm.Dyadic() {
				break outer
			}
			if stopped = ck.Step(1, 0); stopped != nil {
				break outer
			}
			nodes++
			sl := tbl.slot(cl.q)
			q := sl.q
			e := tbl.at(sl, d)
			choice := e.choice
			if !choice.IsSubProb() {
				err = fmt.Errorf("sched: scheduler %q returned mass %v > 1 at state %q depth %d: %w", s.Name(), choice.Total(), q, d, ErrOverMass)
				break outer
			}
			if halt := choice.Deficit(); halt > pruneBelow {
				dm.halts = append(dm.halts, dagHalt{q: q, v: cl.v, depth: d, p: m * halt})
				dm.total += m * halt
				dm.execs += cl.paths
				dm.maxExp = max(dm.maxExp, cl.exp+dyadicExp(halt))
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
			var kids int64
			for ai, act := range e.acts {
				pa := e.aps[ai]
				if pa <= 0 {
					continue
				}
				if ai == e.disabled {
					err = fmt.Errorf("sched: scheduler %q chose disabled action %q at state %q depth %d: %w", s.Name(), act, q, d, ErrDisabledAction)
					break outer
				}
				resilience.FirePanic(resilience.FaultTransitionPanic)
				st := tbl.trans(sl, e, ai)
				v := cl.v
				if fv != nil {
					v = fv.step(v, q, st)
				}
				for qi, q2id := range st.ids {
					pq := st.ps[qi]
					if pq <= 0 {
						continue
					}
					eq := cl.exp + dyadicExp(pa) + dyadicExp(pq)
					dm.maxExp = max(dm.maxExp, eq)
					// Mass accumulates in (source class, action, successor)
					// sorted order — deterministic for a fixed workload.
					if i, ok := index[uint64(q2id)<<32|uint64(v)]; ok {
						nx := &next[i]
						nx.m += m * pa * pq
						nx.paths += cl.paths
						nx.exp = max(nx.exp, eq)
					} else {
						index[uint64(q2id)<<32|uint64(v)] = int32(len(next))
						next = append(next, dagClass{q2id, v, m * pa * pq, cl.paths, eq})
					}
					kids++
				}
			}
			if stopped = ck.Step(0, kids); stopped != nil {
				break outer
			}
		}
		if c.Timed() {
			c.Level([]int64{int64(len(cur))}, []int64{nodes - levelNodes}, []int64{lap.US()})
		}
		slots := *tbl.slots.Load()
		slices.SortFunc(next, func(x, y dagClass) int {
			if c := strings.Compare(string(slots[x.q].q), string(slots[y.q].q)); c != 0 {
				return c
			}
			return cmp.Compare(x.v, y.v)
		})
		cur, next = next, cur
	}
	if err == nil && stopped == nil {
		stopped = ck.Finish()
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
