package sched

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/intern"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/rng"
)

// cStepFills counts step-table misses: one per step entry and one per
// (state, action) transition compiled.
var cStepFills = obs.C("sched.step.fills")

// stepTable compiles the steps of a depth-oblivious scheduler on one
// automaton for one kernel call. The scheduler's choice depends only on
// (last state, depth), so once compiled, a step of any kernel is a read:
//
//   - states get dense IDs on first touch, and the kernels carry each
//     execution's last state as its ID;
//   - the entry at (state ID, depth) holds the choice with its sorted
//     support, its CDF and, in a validating table, the first disabled
//     action;
//   - the transition of each (state, action) holds η's sorted support,
//     its CDF and the IDs of its successors.
//
// Everything fills lazily under one mutex and is published through atomic
// pointers, read-only from then on: a hit takes no lock, only a miss does.
// The choice and transition objects are the scheduler's and the
// automaton's own, so the kernels see the same CDFs, and draw the same
// samples, as through Choose and Trans. A table lives for one kernel call:
// its fills are O(reachable states × depth), far below what one call
// reads, so sharing contents across calls would buy nothing. Its storage
// is recycled, though (release): many calls compile a handful of states,
// and allocating a table per call would cost them more than it saves.
//
// A table pays only where steps repeat. The tree kernel therefore compiles
// the steps of a level whose items end in distinct states in place,
// through the table's stepSource, and builds its table at the first level
// that may repeat one; sampling and the DAG kernel always read a table.
type stepTable struct {
	stepSource

	// mu serializes fills. A fill calls the scheduler and the automaton
	// under it, so that each step compiles once; neither can reach the
	// table.
	mu  sync.Mutex
	ids *intern.Table // state -> ID, under mu
	// slots holds the slot of every ID issued, at its full capacity:
	// fills write new slots past the last issued ID and republish only
	// when the capacity grows.
	slots atomic.Pointer[[]*stateSlot]
	// Fills carve slots, entries and transitions out of these arenas,
	// which a released table keeps for its next call.
	slotArena  arena[stateSlot]
	entryArena arena[stepEntry]
	transArena arena[stepTrans]
	idChunk    []uint32 // backs the transitions' successor and step IDs
	idUsed     int
	// steps, when set, numbers each compiled successor's step for the
	// tree kernel (stepTrans.steps).
	steps *stepSet
}

// stepSource is how one kernel call compiles the steps of a
// depth-oblivious scheduler s on a, table or no table.
type stepSource struct {
	a psioa.PSIOA
	s DepthOblivious
	// sc is s's signature form when s reads the signatures of a itself
	// (the built-in schedulers, bounded or not). Steps then ask a for a
	// state's signature once per state, every depth from horizon on (the
	// tightest of sc's and its Bounded wrappers'; math.MaxInt without sc)
	// halts without asking, and with depthFree a table shares one entry
	// per state across the depths below it.
	sc        sigChooser
	horizon   int
	depthFree bool
	// validate makes steps find the first disabled action, which the
	// exact kernels report; sampling does not check enabledness.
	validate bool
	maxDepth int
}

// newStepSource returns the step source of s on a for one kernel call; its
// s is nil if the scheduler is not depth-oblivious.
func newStepSource(a psioa.PSIOA, sch Scheduler, maxDepth int, validate bool) stepSource {
	src := stepSource{a: a, horizon: math.MaxInt, validate: validate, maxDepth: maxDepth}
	s, ok := AsDepthOblivious(sch)
	if !ok {
		return src
	}
	src.s = s
	bound, inner := math.MaxInt, s
	for {
		b, ok := inner.(*boundedOblivious)
		if !ok {
			break
		}
		bound = min(bound, b.B)
		inner = b.inner
	}
	if sc, ok := inner.(sigChooser); ok && sameAutomaton(sc.sigAut(), a) {
		h, free := sc.horizon()
		src.sc, src.horizon, src.depthFree = sc, min(h, bound), free
	}
	return src
}

// haltsFrom reports whether the scheduler halts in every state at depth,
// as it does from the horizon on.
func (c *stepSource) haltsFrom(depth int) bool { return depth >= c.horizon }

// sigMemo holds a state's signature once it has been asked for.
type sigMemo struct {
	sig psioa.Signature
	ok  bool
}

// sigOf returns q's signature, asking a at most once per memo.
func (c *stepSource) sigOf(q psioa.State, m *sigMemo) psioa.Signature {
	if !m.ok {
		m.sig, m.ok = c.a.Sig(q), true
	}
	return m.sig
}

// choose returns the step at (q, depth): the choice, its sorted support
// with aligned masses and, from a validating source, the index in that
// support of the first positive-mass action q does not enable, or -1. m
// memoizes q's signature across the calls for one state.
func (c *stepSource) choose(q psioa.State, depth int, m *sigMemo) (choice *Choice, acts []psioa.Action, aps []float64, disabled int) {
	switch {
	case c.haltsFrom(depth):
		return haltChoice, nil, nil, -1
	case c.sc != nil:
		choice = c.sc.chooseSig(c.sigOf(q, m), depth)
	default:
		choice = c.s.ChooseAt(q, depth)
	}
	acts, aps = choice.SupportAndProbs()
	disabled = -1
	// sc chooses only actions its signature enables, and that signature
	// is a's. Otherwise the signature is asked for only where the exact
	// kernels ask: for a choice they expand, below maxDepth.
	if c.validate && c.sc == nil && choice.IsSubProb() && choice.Total() > pruneBelow && depth < c.maxDepth {
		disabled = firstDisabled(c.sigOf(q, m), acts, aps)
	}
	return choice, acts, aps, disabled
}

// firstDisabled returns the index of the first positive-mass action in
// acts that sig does not enable, or -1.
func firstDisabled(sig psioa.Signature, acts []psioa.Action, aps []float64) int {
	for i, act := range acts {
		if aps[i] > 0 && !sig.Has(act) {
			return i
		}
	}
	return -1
}

// arena hands out zeroed Ts from chunks that it keeps across resets.
type arena[T any] struct {
	chunks [][]T
	n      int // handed out since the last reset
}

const arenaChunk = 32

func (a *arena[T]) alloc() *T {
	c, i := a.n/arenaChunk, a.n%arenaChunk
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	a.n++
	return &a.chunks[c][i]
}

// reset zeroes everything handed out, for reuse.
func (a *arena[T]) reset() {
	for c := 0; c*arenaChunk < a.n; c++ {
		clear(a.chunks[c][:min(arenaChunk, a.n-c*arenaChunk)])
	}
	a.n = 0
}

// stepTables recycles released tables.
var stepTables = sync.Pool{New: func() any {
	t := &stepTable{ids: intern.NewTable(0)}
	t.slots.Store(new([]*stateSlot))
	return t
}}

// stateSlot is the compiled form of one state.
type stateSlot struct {
	q psioa.State
	// first is the entry compiled first, at its depth — or at every depth
	// below the horizon of a depth-free sc. row holds the entries
	// compiled at other depths.
	first atomic.Pointer[stepEntry]
	row   atomic.Pointer[depthRow]

	// Fill-side memos, guarded by the table mutex.
	sig    sigMemo
	trans0 *stepTrans   // the first compiled transition
	trans  []*stepTrans // the others, in first-use order
}

// depthRow holds a state's entries for the depths [lo, lo+len(es)). Fills
// widen it by republishing a copy; entries are stored atomically.
type depthRow struct {
	lo int
	es []atomic.Pointer[stepEntry]
}

// drawCDF is a compiled choice or transition as a sampler draws from it.
type drawCDF struct {
	cum []float64 // the Dist's CDF (measure.Dist.CDF)
	// sure says every draw lands on index 0 (measure.SureCDF): a sampler
	// then advances the stream without reading it.
	sure bool
}

func newDrawCDF(cum []float64) drawCDF { return drawCDF{cum, measure.SureCDF(cum)} }

// stepEntry is the compiled step at one (state, depth).
type stepEntry struct {
	depth  int
	choice *Choice
	acts   []psioa.Action // the choice's sorted support
	aps    []float64      // aligned masses
	drawCDF
	// disabled is the index in acts of the first positive-mass action not
	// enabled at the state, or -1. Only a validating table sets it, for a
	// sub-probability choice with mass: the only choices the exact kernels
	// check.
	disabled int
	trans    []atomic.Pointer[stepTrans]  // aligned with acts, filled on use
	one      [1]atomic.Pointer[stepTrans] // backs trans for one action
}

// stepTrans is one compiled transition η(q, act).
type stepTrans struct {
	act psioa.Action
	qs  []psioa.State // η's sorted support
	ps  []float64     // aligned masses
	drawCDF
	ids []uint32 // aligned successor IDs
	// steps holds the aligned step IDs of (act, successor) in the table's
	// stepSet; nil without one.
	steps []uint32
}

// haltEntry is the step of every state from the horizon of a table's
// signature-form scheduler on: halt, shared by all tables.
var haltEntry = &stepEntry{choice: haltChoice, disabled: -1}

// newStepTable returns an empty table compiling src's steps. The kernel
// releases it when its call is over.
func newStepTable(src stepSource) *stepTable {
	t := stepTables.Get().(*stepTable)
	t.stepSource = src
	return t
}

// pooledFills bounds what a recycled table keeps: a table that compiled
// more slots, entries or transitions than this is left to the collector.
// Its storage would make every reuse and every GC cycle dearer, and a call
// that size amortizes its own allocations.
const pooledFills = 4 * arenaChunk

// release recycles t. The caller's kernel call is over: no goroutine
// reads t any more, and nothing the call returns points into it.
func (t *stepTable) release() {
	if t.slotArena.n > pooledFills || t.entryArena.n > pooledFills || t.transArena.n > pooledFills {
		return
	}
	t.stepSource, t.steps = stepSource{}, nil
	clear((*t.slots.Load())[:t.ids.Len()])
	t.ids.Reset()
	t.slotArena.reset()
	t.entryArena.reset()
	t.transArena.reset()
	t.idUsed = 0
	stepTables.Put(t)
}

// sameAutomaton reports whether x and y are the same automaton object.
// Only pointers are compared, which never panics.
func sameAutomaton(x, y psioa.PSIOA) bool {
	tx := reflect.TypeOf(x)
	return tx != nil && tx == reflect.TypeOf(y) && tx.Kind() == reflect.Pointer && x == y
}

// intern returns q's ID, creating its slot on first touch. The caller
// holds the mutex or owns the table. A reader learns an ID only from an
// entry published after the slot was written, so the write needs no
// publication of its own.
func (t *stepTable) intern(q psioa.State) uint32 {
	id, fresh := t.ids.Intern(string(q))
	if fresh {
		slots := *t.slots.Load()
		if int(id) == len(slots) {
			grown := append(slots, make([]*stateSlot, max(4, len(slots)))...)
			t.slots.Store(&grown)
			slots = grown
		}
		sl := t.slotArena.alloc()
		sl.q = q
		slots[id] = sl
	}
	return id
}

// slot returns the slot of an ID this table issued.
func (t *stepTable) slot(id uint32) *stateSlot { return (*t.slots.Load())[id] }

// states returns the number of IDs issued so far; IDs are [0, states). It
// reads fill-side state, so only a single-goroutine kernel may call it.
func (t *stepTable) states() int { return t.ids.Len() }

// at returns the step at (sl's state, depth), compiling it on a miss.
func (t *stepTable) at(sl *stateSlot, depth int) *stepEntry {
	if e := t.lookup(sl, depth); e != nil {
		return e
	}
	return t.fill(sl, depth)
}

// lookup returns the compiled step at (sl's state, depth), or nil.
func (t *stepTable) lookup(sl *stateSlot, depth int) *stepEntry {
	if t.haltsFrom(depth) {
		return haltEntry
	}
	if e := sl.first.Load(); e != nil && (e.depth == depth || t.depthFree) {
		return e
	}
	if r := sl.row.Load(); r != nil {
		if i := depth - r.lo; i >= 0 && i < len(r.es) {
			return r.es[i].Load()
		}
	}
	return nil
}

func (t *stepTable) fill(sl *stateSlot, depth int) *stepEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.lookup(sl, depth); e != nil {
		return e
	}
	e := t.compile(sl, depth)
	if sl.first.Load() == nil {
		sl.first.Store(e)
		return e
	}
	r := sl.row.Load()
	if r == nil || depth < r.lo || depth >= r.lo+len(r.es) {
		// Widen the row to cover depth, doubling it upwards (the way
		// the level-synchronous kernels move) up to maxDepth.
		lo, hi := depth, depth+1
		if r != nil {
			lo, hi = min(lo, r.lo), max(hi, min(r.lo+2*len(r.es), t.maxDepth+1))
		}
		wide := &depthRow{lo: lo, es: make([]atomic.Pointer[stepEntry], hi-lo)}
		if r != nil {
			for i := range r.es {
				wide.es[r.lo-lo+i].Store(r.es[i].Load())
			}
		}
		sl.row.Store(wide)
		r = wide
	}
	r.es[depth-r.lo].Store(e)
	return e
}

// compile builds the entry at (sl's state, depth). The caller holds the
// mutex.
func (t *stepTable) compile(sl *stateSlot, depth int) *stepEntry {
	choice, acts, aps, disabled := t.choose(sl.q, depth, &sl.sig)
	e := t.entryArena.alloc()
	e.depth, e.choice, e.acts, e.aps, e.disabled = depth, choice, acts, aps, disabled
	e.drawCDF = newDrawCDF(choice.CDF())
	if len(acts) == 1 {
		e.trans = e.one[:]
	} else {
		e.trans = make([]atomic.Pointer[stepTrans], len(acts))
	}
	cStepFills.Inc()
	return e
}

// trans returns the transition of e's i-th action at sl's state,
// compiling it on a miss. A transition is shared by every depth.
func (t *stepTable) trans(sl *stateSlot, e *stepEntry, i int) *stepTrans {
	if st := e.trans[i].Load(); st != nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := e.trans[i].Load(); st != nil {
		return st
	}
	act := e.acts[i]
	st := sl.compiled(act)
	if st == nil {
		eta := t.a.Trans(sl.q, act)
		qs, ps := eta.SupportAndProbs()
		st = t.transArena.alloc()
		st.act, st.qs, st.ps, st.drawCDF = act, qs, ps, newDrawCDF(eta.CDF())
		if sl.trans0 == nil {
			sl.trans0 = st
		} else {
			sl.trans = append(sl.trans, st)
		}
		st.ids = t.carve(len(qs))
		for j, q2 := range qs {
			st.ids[j] = t.intern(q2)
		}
		if t.steps != nil {
			st.steps = t.carve(len(qs))
			for j, q2 := range qs {
				st.steps[j] = t.steps.add(act, q2)
			}
		}
		cStepFills.Inc()
	}
	e.trans[i].Store(st)
	return st
}

// carve returns n IDs' worth of idChunk. The caller holds the mutex.
func (t *stepTable) carve(n int) []uint32 {
	if t.idUsed+n > len(t.idChunk) {
		t.idChunk, t.idUsed = make([]uint32, max(n, 4*arenaChunk)), 0
	}
	ids := t.idChunk[t.idUsed : t.idUsed+n : t.idUsed+n]
	t.idUsed += n
	return ids
}

// compiled returns sl's compiled transition of act, or nil. The caller
// holds the mutex.
func (sl *stateSlot) compiled(act psioa.Action) *stepTrans {
	if sl.trans0 != nil && sl.trans0.act == act {
		return sl.trans0
	}
	for _, st := range sl.trans {
		if st.act == act {
			return st
		}
	}
	return nil
}

// sample draws one execution with exactly the draws of Sample — per step
// one scheduler draw, then one transition draw, each from the compiled
// CDF — and returns the slot of its last state and the steps taken, which
// the caller counts. With build it also returns the execution as a
// fragment; without, none is built.
func (t *stepTable) sample(stream *rng.Stream, maxDepth int, build bool) (*stateSlot, int, *psioa.Frag, error) {
	sl, depth := t.slot(0), 0
	var f *psioa.Frag
	if build {
		f = psioa.NewFrag(sl.q)
	}
	for {
		// The hit paths of at and trans, inline; a sure draw lands on
		// index 0 for every u, so it only advances the stream.
		e := sl.first.Load()
		if t.haltsFrom(depth) || e == nil || e.depth != depth && !t.depthFree {
			e = t.at(sl, depth)
		}
		i := 0
		if e.sure {
			stream.Skip()
		} else if i = measure.SearchCDF(e.cum, stream.Float64()); i == len(e.cum) {
			return sl, depth, f, nil // halt
		}
		if depth >= maxDepth {
			return nil, depth, nil, fmt.Errorf("sched: sample exceeded depth %d: %w", maxDepth, ErrDepthExceeded)
		}
		st := e.trans[i].Load()
		if st == nil {
			st = t.trans(sl, e, i)
		}
		j := 0
		if st.sure {
			stream.Skip()
		} else if j = measure.SearchCDF(st.cum, stream.Float64()); j == len(st.cum) {
			return nil, depth, nil, fmt.Errorf("sched: transition measure for %q at %q is sub-stochastic: %w", st.act, sl.q, ErrSubStochastic)
		}
		if build {
			f = f.Extend(st.act, st.qs[j])
		}
		sl = t.slot(st.ids[j])
		depth++
	}
}

// stepSet numbers the steps of one tree-kernel call. A step is an
// (action, successor state) pair: the last step of an execution fragment,
// which with its parent's node identifies a node of the expansion tree.
// Shards add steps concurrently, under mu. A step table adds each compiled
// successor once and in-place compilation each child, while fragments of a
// scheduler that is not depth-oblivious intern theirs, so that the tree's
// repeated steps share one ID. Two IDs may name one (action, state) pair,
// but never two siblings.
type stepSet struct {
	mu    sync.Mutex
	ids   *intern.Table // enc(a)|enc(q) -> step ID, for intern; nil until used
	buf   []byte
	steps []treeStep // by step ID
}

// add returns a new ID for the step (a, q).
func (s *stepSet) add(a psioa.Action, q psioa.State) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(a, q)
}

func (s *stepSet) addLocked(a psioa.Action, q psioa.State) uint32 {
	s.steps = append(s.steps, treeStep{a, q})
	return uint32(len(s.steps) - 1)
}

// intern returns the ID of the step (a, q), the same for every call.
func (s *stepSet) intern(a psioa.Action, q psioa.State) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ids == nil {
		s.ids = intern.NewTable(0)
	}
	s.buf = codec.AppendTuple(s.buf[:0], string(a), string(q))
	if id, ok := s.ids.Lookup(string(s.buf)); ok {
		return id
	}
	s.ids.ID(string(s.buf))
	return s.addLocked(a, q)
}

// ranks orders the key items of the steps marked in need, for keyOrder. A
// fragment key is the codec tuple q0|a1|q1|…, so every key below a child
// c of α starts with key(α)|enc(a)|enc(q), where (a, q) is c's last step
// s. Among c's siblings, c stands for two items: self, enc(a)|enc(q),
// standing for key(c) itself, ranked rank[2s]; and subtree, self followed
// by '|', standing for every key below c, ranked rank[2s+1]. Ranks are the
// items' positions in bytewise order over all the marked steps, computed
// once per step, so they order every sibling group as sorting its items'
// bytes would. Unmarked steps rank 0.
func ranks(steps []treeStep, need []bool) []uint32 {
	type item struct {
		id       uint32 // 2s, or 2s+1 for subtree
		off, end int    // the item's bytes in buf
	}
	var (
		items []item
		buf   []byte
	)
	for s, st := range steps {
		if !need[s] {
			continue
		}
		off := len(buf)
		buf = codec.AppendTuple(buf, string(st.act), string(st.q))
		buf = append(buf, '|')
		items = append(items, item{uint32(2 * s), off, len(buf) - 1}, item{uint32(2*s + 1), off, len(buf)})
	}
	slices.SortFunc(items, func(x, y item) int {
		return bytes.Compare(buf[x.off:x.end], buf[y.off:y.end])
	})
	rank := make([]uint32, 2*len(steps))
	for r, it := range items {
		rank[it.id] = uint32(r)
	}
	return rank
}
