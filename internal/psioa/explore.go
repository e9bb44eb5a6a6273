package psioa

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/measure"
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
	// Sigs maps each reachable state to its signature (nil under a Visitor).
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
// Explore(a, limit) is exactly ExploreCtx(nil, a, limit, nil), and
// ExploreCtx is Walk with no visitor.
func ExploreCtx(ctx context.Context, a PSIOA, limit int, b *resilience.Budget) (*Exploration, error) {
	return Walk(ctx, a, limit, b, nil)
}

// Succ is one successor of a transition the walk visits: its state's walk
// ID, the state and its mass.
type Succ struct {
	ID uint32
	Q  State
	P  float64
}

// A Visitor sees an exploration walk as it goes, in BFS order. Every state
// it sees, dequeued or only a successor, has a walk ID, which names that
// state for the whole walk. IDs are dense: the state IDs of the product's
// table, or of the walk's own index for any other automaton.
type Visitor interface {
	// State is called for each state the walk dequeues, with its sorted
	// actions and their roles in its signature, the automaton's Sig (both
	// shared: do not modify; roles only until State returns).
	State(id uint32, q State, acts []Action, roles []Role)
	// Trans is called after State, for each k in order, with the support
	// of η_{(q, acts[k])} and its masses: seen successors and those beyond
	// the limit included. succ is reused once Trans returns.
	Trans(k int, succ []Succ)
}

// StateFunc is a Visitor of states only.
type StateFunc func(id uint32, q State, acts []Action, roles []Role)

// State implements Visitor.
func (f StateFunc) State(id uint32, q State, acts []Action, roles []Role) { f(id, q, acts, roles) }

// Trans implements Visitor: a StateFunc ignores transitions.
func (StateFunc) Trans(int, []Succ) {}

// Walk is ExploreCtx with a visitor v, which may be nil; under a visitor
// it leaves Sigs nil. A product, and every view of one (see view: Hidden,
// Atomic, the structured automata and the compositions that embed a
// product), supplies the visited successors and roles from the product's
// table, so visiting builds no product measure and composes no signature;
// only a view through a Hidden reads its roles from its Sig, as hiding
// reclassifies. Any other automaton supplies them from Trans and Sig.
func Walk(ctx context.Context, a PSIOA, limit int, b *resilience.Budget, v Visitor) (*Exploration, error) {
	c := obs.Enter(ctx, obs.LayerExplore, a.ID())
	defer c.End()
	if err := resilience.FireDelay(ctx, resilience.FaultSlowOp); err != nil {
		return nil, err
	}
	ck := resilience.NewCheckpoint(ctx, b)
	tr := obs.Active()
	traced := tr.Enabled()
	var nTrans int64
	ex := &Exploration{Acts: NewActionSet()}
	if v == nil {
		ex.Sigs = make(map[State]Signature)
	}
	// The walk runs over dense state IDs. The states of an automaton that
	// shares a product's table come from that table, so exploring builds
	// no product measures and encodes each product state once; any other
	// automaton is walked through its transition measures' sorted
	// supports.
	st := stepperOf(a)
	w := &walk{limit: limit, visit: v != nil}
	start := st.start()
	w.mark(start)
	queue := []uint32{start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if err := ck.Step(1, 0); err != nil {
			return exploreStopped(ex, nTrans, err)
		}
		q, acts, err := st.state(id)
		if err != nil {
			return nil, err
		}
		if st.newActs() {
			for _, act := range acts {
				ex.Acts.Add(act)
			}
		}
		ex.States = append(ex.States, q)
		if v != nil {
			v.State(id, q, acts, st.roles())
		} else {
			ex.Sigs[q] = st.sig()
		}
		if traced {
			tr.Emit(obs.Event{Kind: obs.KindStateFound, Name: a.ID(), Attr: string(q), N: int64(len(ex.States))})
		}
		// Deterministic discovery order: sorted actions, and per action
		// the unseen successors sorted by encoding. This makes truncated
		// explorations reproducible run to run. Seen successors never
		// affect discovery order or truncation, so only unseen ones are
		// collected.
		for k, act := range acts {
			nTrans++
			if err := ck.Step(0, 1); err != nil {
				return exploreStopped(ex, nTrans, err)
			}
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindTransition, Name: a.ID(), Attr: string(act)})
			}
			w.fresh, w.succ = w.fresh[:0], w.succ[:0]
			st.fresh(w, id, k)
			if v != nil {
				v.Trans(k, w.succ)
			}
			for _, id2 := range w.fresh {
				if w.n >= limit {
					w.truncated = true
					continue
				}
				w.mark(id2)
				queue = append(queue, id2)
			}
		}
	}
	ex.Truncated = w.truncated
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

// productOf returns the Product a is, following Inner through views (see
// view), or nil when a views no product.
func productOf(a PSIOA) *Product {
	for {
		if p, ok := a.(*Product); ok {
			return p
		}
		v, ok := a.(view)
		if !ok {
			return nil
		}
		a = v.Inner()
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
// renaming injectivity (Lemma A.1 requirement). It is one Walk: an
// incompatibility anywhere is reported first, then the first failing
// state in BFS order, with its least failing action.
func Validate(a PSIOA, limit int) error {
	v := &validator{a: a}
	if _, err := Walk(nil, a, limit, nil, v); err != nil {
		return err
	}
	return v.err
}

// validator is Validate's visitor; err is the first failure it saw.
type validator struct {
	a    PSIOA
	q    State
	acts []Action
	succ []Succ
	err  error
}

// State checks disjointness: an action with two roles is an overlap.
func (v *validator) State(_ uint32, q State, acts []Action, roles []Role) {
	v.q, v.acts = q, acts
	if v.err == nil && slices.ContainsFunc(roles, func(r Role) bool { return r&(r-1) != 0 }) {
		v.err = fmt.Errorf("psioa: %q state %q: %w", v.a.ID(), q, v.a.Sig(q).CheckDisjoint())
	}
}

// Trans checks that the successors' masses sum to 1, summing them in
// encoding order as measure.Dist.Total does.
func (v *validator) Trans(k int, succ []Succ) {
	if v.err != nil {
		return
	}
	v.succ = append(v.succ[:0], succ...)
	slices.SortFunc(v.succ, func(x, y Succ) int { return strings.Compare(string(x.Q), string(y.Q)) })
	total := 0.0
	for _, s := range v.succ {
		total += s.P
	}
	if !(math.Abs(total-1) <= measure.Eps) {
		v.err = fmt.Errorf("psioa: %q transition (%q,%q): total mass %v, want 1", v.a.ID(), v.q, v.acts[k], total)
	}
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

// stepper is what Explore's breadth-first walk needs of an automaton:
// dense state IDs, each state's sorted actions and signature, and the
// unseen successors of one of its transitions.
type stepper interface {
	start() uint32
	// state checks compatibility at id and returns its state and sorted
	// actions; newActs reports whether they may be new to the walk.
	state(id uint32) (State, []Action, error)
	newActs() bool
	// sig returns the signature of the state the last state call returned,
	// and roles the roles of its actions in it.
	sig() Signature
	roles() []Role
	// fresh sets w.fresh to the successors of (id, acts[k]) that w has
	// not seen, sorted by encoding; it stops collecting at w's limit.
	// When w.visit is set it also sets w.succ to every successor.
	fresh(w *walk, id uint32, k int)
}

// walk is one exploration's visited set over a stepper's state IDs.
type walk struct {
	seen      []uint64 // bitset by state ID
	n, limit  int
	truncated bool
	fresh     []uint32
	visit     bool
	succ      []Succ
}

func (w *walk) has(id uint32) bool {
	i := int(id >> 6)
	return i < len(w.seen) && w.seen[i]&(1<<(id&63)) != 0
}

func (w *walk) mark(id uint32) {
	for int(id>>6) >= len(w.seen) {
		w.seen = append(w.seen, 0)
	}
	w.seen[id>>6] |= 1 << (id & 63)
	w.n++
}

// prodStepper walks a product's table. a is the explored automaton: the
// product itself, or an automaton sharing its table.
type prodStepper struct {
	p     *Product
	a     PSIOA
	cur   pstate // the state the last state call returned
	w     *walk
	found []foundState
	emit  func(key []byte, pr float64)
	hides bool // a views p through a Hidden, so its roles come from its Sig
	rbuf  []Role
	walk  uint64 // this walk's ID, from walkIDs
}

// walkIDs numbers the walks of product tables (see sigEntry.walked).
var walkIDs atomic.Uint64

// foundState is an unseen successor with its encoding, the sort key.
type foundState struct {
	id uint32
	q  State
}

func newProdStepper(p *Product, a PSIOA) *prodStepper {
	s := &prodStepper{p: p, a: a, walk: walkIDs.Add(1)}
	for v := a; v != PSIOA(p); v = v.(view).Inner() {
		_, h := v.(interface{ HiddenAt(State) ActionSet })
		s.hides = s.hides || h
	}
	s.emit = func(key []byte, pr float64) {
		w := s.w
		id, ok := p.byTuple[string(key)]
		if w.visit {
			// A visited successor needs its ID and encoding even when it
			// lies beyond the limit.
			if !ok {
				id, ok = p.idLocked(key), true
			}
			w.succ = append(w.succ, Succ{id, p.states[id].q, pr})
		}
		if ok && w.has(id) {
			return
		}
		if w.n >= w.limit {
			w.truncated = true
			return
		}
		if !ok {
			id = p.idLocked(key)
		}
		s.found = append(s.found, foundState{id, p.states[id].q})
	}
	return s
}

func (s *prodStepper) start() uint32 { return s.p.startID() }

// state returns the product's sorted actions, which are a sharer's too.
func (s *prodStepper) state(id uint32) (State, []Action, error) {
	st, err := s.p.prepare(id)
	if err != nil {
		return "", nil, err
	}
	s.cur = st
	return st.q, st.ent.acts, nil
}

// newActs reports whether the walk meets the state's entry for the first time.
func (s *prodStepper) newActs() bool { return s.cur.ent.walked.Swap(s.walk) != s.walk }

func (s *prodStepper) sig() Signature {
	if s.a != PSIOA(s.p) {
		return s.a.Sig(s.cur.q)
	}
	return s.p.sigOf(s.cur.ent)
}

func (s *prodStepper) roles() []Role {
	if s.hides {
		s.rbuf = appendRoles(s.rbuf[:0], s.a.Sig(s.cur.q), s.cur.ent.acts)
		return s.rbuf
	}
	return s.cur.ent.roles
}

func (s *prodStepper) fresh(w *walk, _ uint32, k int) {
	s.w, s.found = w, s.found[:0]
	s.p.succs(s.cur, k, s.emit)
	slices.SortFunc(s.found, func(x, y foundState) int { return strings.Compare(string(x.q), string(y.q)) })
	for _, f := range s.found {
		w.fresh = append(w.fresh, f.id)
	}
}

// autStepper walks any other automaton through its transition measures'
// sorted supports, interning states as it discovers them.
type autStepper struct {
	a      PSIOA
	cc     compatAtChecker
	ids    map[State]uint32
	states []State
	cur    Signature
	acts   []Action
	rbuf   []Role
}

func (s *autStepper) intern(q State) uint32 {
	if id, ok := s.ids[q]; ok {
		return id
	}
	id := uint32(len(s.states))
	s.ids[q] = id
	s.states = append(s.states, q)
	return id
}

func (s *autStepper) start() uint32 { return s.intern(s.a.Start()) }

func (s *autStepper) state(id uint32) (State, []Action, error) {
	q := s.states[id]
	if s.cc != nil {
		if err := s.cc.CompatAt(q); err != nil {
			return "", nil, err
		}
	}
	s.cur = s.a.Sig(q)
	s.acts = SortedAll(s.cur)
	return q, s.acts, nil
}

func (s *autStepper) sig() Signature { return s.cur }

func (s *autStepper) newActs() bool { return true }

func (s *autStepper) roles() []Role {
	s.rbuf = appendRoles(s.rbuf[:0], s.cur, s.acts)
	return s.rbuf
}

func (s *autStepper) fresh(w *walk, id uint32, k int) {
	qs, ps := s.a.Trans(s.states[id], s.acts[k]).SupportAndProbs()
	for j, q2 := range qs {
		id2, ok := s.ids[q2]
		if w.visit {
			// As in prodStepper's emit, a visited successor is interned
			// even beyond the limit. A NaN mass is kept, as Trans has it.
			if !ok {
				id2, ok = s.intern(q2), true
			}
			if ps[j] != 0 {
				w.succ = append(w.succ, Succ{id2, q2, ps[j]})
			}
		}
		if ok && w.has(id2) {
			continue
		}
		if w.n >= w.limit {
			w.truncated = true
			continue
		}
		if !ok {
			id2 = s.intern(q2)
		}
		w.fresh = append(w.fresh, id2)
	}
}

// stepperOf returns the stepper Explore walks a with: the state table of
// the product a shares states with, or the generic walk.
func stepperOf(a PSIOA) stepper {
	if p := productOf(a); p != nil {
		return newProdStepper(p, a)
	}
	return &autStepper{a: a, cc: checkerOf(a), ids: make(map[State]uint32)}
}
