package psioa

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// Observability instruments for the exploration hot path. Counters are
// batched per Explore call; per-state and per-transition trace events fire
// only when a tracer is installed.
var (
	cExploreCalls  = obs.C("psioa.explore.calls")
	cExploreStates = obs.C("psioa.explore.states")
	cExploreTrans  = obs.C("psioa.explore.transitions")
	cExploreTrunc  = obs.C("psioa.explore.truncated")
)

// Exploration is the result of a bounded breadth-first reachability
// analysis of an automaton.
type Exploration struct {
	// States are the reachable states in BFS discovery order.
	States []State
	// Sigs maps each reachable state to its signature.
	Sigs map[State]Signature
	// Acts is the union of all reachable signatures: the reachable part of
	// acts(A).
	Acts ActionSet
	// Truncated reports whether the state limit was hit before the
	// reachable set was exhausted.
	Truncated bool
}

// Explore performs bounded BFS from the start state, following the supports
// of all enabled transitions. limit bounds the number of distinct states
// visited; when the reachable set is larger, Truncated is set and the
// result covers the first limit states. Component incompatibility (for
// composite automata) is reported as an error.
func Explore(a PSIOA, limit int) (*Exploration, error) {
	return ExploreCtx(nil, a, limit, nil)
}

// ExploreCtx is Explore with cooperative cancellation and a work budget:
// the BFS loop polls ctx and charges b (one state per dequeue, one
// transition per enabled action) through an amortized checkpoint. On a
// budget-bounded stop the exploration found so far is returned — marked
// Truncated — alongside the ErrBudgetExceeded-classified error; on context
// termination the result is nil with an ErrCancelled/ErrDeadline error.
// Explore(a, limit) is exactly ExploreCtx(nil, a, limit, nil).
func ExploreCtx(ctx context.Context, a PSIOA, limit int, b *resilience.Budget) (*Exploration, error) {
	sp := obs.Begin("psioa.explore", a.ID())
	defer sp.End()
	defer obs.Time("psioa.explore.us")()
	if err := resilience.FireDelay(ctx, resilience.FaultSlowOp); err != nil {
		return nil, err
	}
	ck := resilience.NewCheckpoint(ctx, b)
	tr := obs.Active()
	traced := tr.Enabled()
	var nTrans int64
	ex := &Exploration{Sigs: make(map[State]Signature), Acts: NewActionSet()}
	start := a.Start()
	queue := []State{start}
	seen := map[State]bool{start: true}
	// fresh collects the unseen successors of one transition. Seen
	// successors never affect discovery order or truncation, so only
	// unseen ones are materialised as States.
	var fresh []State
	// A product (possibly under hiding or an Atomic wrapper, which share its
	// states and transitions) is walked over the product of its components'
	// supports, so exploring builds no product measures. The tuple encoding
	// goes into one reused buffer and the seen-lookup does not allocate.
	prod := productOf(a)
	walk := &prodEnum{emit: func(enc []byte, _ float64) {
		if seen[State(enc)] {
			return
		}
		if len(seen) >= limit {
			ex.Truncated = true
			return
		}
		fresh = append(fresh, State(enc))
	}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if err := ck.Step(1, 0); err != nil {
			return exploreStopped(ex, nTrans, err)
		}
		if cc, ok := a.(compatAtChecker); ok {
			if err := cc.CompatAt(q); err != nil {
				return nil, err
			}
		}
		sig := a.Sig(q)
		ex.States = append(ex.States, q)
		ex.Sigs[q] = sig
		if traced {
			tr.Emit(obs.Event{Kind: obs.KindStateFound, Name: a.ID(), Attr: string(q), N: int64(len(ex.States))})
		}
		// Deterministic discovery order: sorted actions, sorted successors.
		// This makes truncated explorations reproducible run to run.
		// SortedAll is memoized per signature identity (states sharing a
		// signature share the sort). A transition measure that already
		// exists supplies its cached sorted support; otherwise the product
		// walk enumerates the support and only the fresh successors are
		// sorted.
		for _, act := range SortedAll(sig) {
			ex.Acts.Add(act)
			nTrans++
			if err := ck.Step(0, 1); err != nil {
				return exploreStopped(ex, nTrans, err)
			}
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindTransition, Name: a.ID(), Attr: string(act)})
			}
			fresh = fresh[:0]
			var d *Dist
			if prod == nil {
				d = a.Trans(q, act)
			} else {
				d = prod.cachedTrans(q, act)
			}
			if d != nil {
				for _, q2 := range d.SortedSupport() {
					if !seen[q2] {
						fresh = append(fresh, q2)
					}
				}
			} else {
				prod.enumerate(walk, q, act)
				slices.Sort(fresh)
			}
			for _, q2 := range fresh {
				if len(seen) >= limit {
					ex.Truncated = true
					continue
				}
				seen[q2] = true
				queue = append(queue, q2)
			}
		}
	}
	if err := ck.Finish(); err != nil {
		return exploreStopped(ex, nTrans, err)
	}
	cExploreCalls.Inc()
	cExploreStates.Add(int64(len(ex.States)))
	cExploreTrans.Add(nTrans)
	if ex.Truncated {
		cExploreTrunc.Inc()
	}
	return ex, nil
}

// productOf returns the Product whose states and transitions a shares: a
// itself, or the product under Hidden and Atomic wrappers. It returns nil
// for every other automaton.
func productOf(a PSIOA) *Product {
	for {
		switch w := a.(type) {
		case *Product:
			return w
		case *Hidden:
			a = w.inner
		case *Atomic:
			a = w.inner
		default:
			return nil
		}
	}
}

// exploreStopped finalises an exploration interrupted by a checkpoint. A
// budget stop keeps the partial result (marked Truncated — the reachable
// set was not exhausted); context termination discards it.
func exploreStopped(ex *Exploration, nTrans int64, err error) (*Exploration, error) {
	cExploreCalls.Inc()
	cExploreStates.Add(int64(len(ex.States)))
	cExploreTrans.Add(nTrans)
	cExploreTrunc.Inc()
	if !resilience.IsBudget(err) {
		return nil, err
	}
	ex.Truncated = true
	return ex, err
}

// SortedStates returns the reachable states in lexicographic order.
func (ex *Exploration) SortedStates() []State {
	out := append([]State(nil), ex.States...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks the PSIOA constraints of Def 2.1 on the reachable
// fragment (up to limit states): signature disjointness, action enabling
// with probability-measure transitions, and — for composite automata —
// compatibility at every reachable state (partial compatibility, §2.6) and
// renaming injectivity (Lemma A.1 requirement).
func Validate(a PSIOA, limit int) error {
	ex, err := Explore(a, limit)
	if err != nil {
		return err
	}
	for _, q := range ex.States {
		sig := ex.Sigs[q]
		if err := sig.CheckDisjoint(); err != nil {
			return fmt.Errorf("psioa: %q state %q: %w", a.ID(), q, err)
		}
		var verr error
		sig.ForEachAction(func(act Action) {
			if verr != nil {
				return
			}
			d := a.Trans(q, act)
			if !d.IsProb() {
				verr = fmt.Errorf("psioa: %q transition (%q,%q): total mass %v, want 1", a.ID(), q, act, d.Total())
			}
		})
		if verr != nil {
			return verr
		}
	}
	return nil
}

// ActsUniverse returns the reachable part of acts(A) =
// ∪_q sig(A)(q)^, computed by bounded exploration.
func ActsUniverse(a PSIOA, limit int) (ActionSet, error) {
	ex, err := Explore(a, limit)
	if err != nil {
		return nil, err
	}
	return ex.Acts, nil
}

// CheckPartiallyCompatible verifies that the automata are partially
// compatible (§2.6): every reachable state of their composition is
// compatible. It is the executable rendering of Def 3.3's requirement for
// environments.
func CheckPartiallyCompatible(limit int, auts ...PSIOA) error {
	p, err := Compose(auts...)
	if err != nil {
		return err
	}
	_, err = Explore(p, limit)
	return err
}

// Reachable reports whether q is reachable in A within the state limit.
func Reachable(a PSIOA, q State, limit int) (bool, error) {
	ex, err := Explore(a, limit)
	if err != nil {
		return false, err
	}
	_, ok := ex.Sigs[q]
	return ok, nil
}
