package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// Options configures the measure and sampling kernels. The zero value runs
// one shard inline on the calling goroutine.
type Options struct {
	// Workers is the shard count of the level-synchronous expansion and the
	// sampling fan-out. Zero means 1.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 1
}

// runShards executes fn(0..n-1): a lone shard inline on the calling
// goroutine, more on private goroutines (n is already bounded by the worker
// count). Panics are isolated into *resilience.PanicError failures either
// way — the rule engine.Pool.Map follows — and the lowest-index failure
// wins.
func runShards(n int, fn func(i int)) error {
	if n == 1 {
		return catchShard(fn, 0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = catchShard(fn, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// catchShard runs shard i, converting a panic into a *PanicError return.
func catchShard(fn func(i int), i int) error {
	return resilience.Catch(func() error { fn(i); return nil })
}

// span is a contiguous index range of one shard.
type span struct{ lo, hi int }

// splitSpans partitions [0, n) into at most parts contiguous ranges whose
// sizes differ by at most one, reusing dst's storage. The partition depends
// only on (n, parts), so shard boundaries are deterministic.
func splitSpans(dst []span, n, parts int) []span {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	dst = dst[:0]
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		dst = append(dst, span{lo, lo + sz})
		lo += sz
	}
	return dst
}

// parItem is one frontier item of the level-synchronous expansion: its
// node in the measure's tree, the step-table ID of its last state (on a
// level that reads compiled steps), and its reach mass. It holds no
// pointer; a scheduler that is not depth-oblivious reads a fragment, which
// the frontier keeps in a parallel slice.
type parItem struct {
	node, sid uint32
	p         float64
}

// parShard is the output of one shard's frontier range: completed work in
// frontier-index order plus the first validation error or checkpoint stop,
// tagged with its global frontier index so the merge can pick a
// deterministic winner across any worker count.
type parShard struct {
	halts  []nodeMass
	events []obs.Event
	// nodes holds the children's node records; next the children as
	// frontier items, each numbered by its position in nodes; and, for a
	// scheduler that is not depth-oblivious, frags their fragments. Shard
	// 0 appends to the measure's own nodes and halts, so its positions are
	// node IDs; the merge renumbers the other shards' children.
	nodes   []treeNode
	next    []parItem
	frags   []*psioa.Frag
	steps   int64
	haltn   int64
	wallUS  int64
	err     error
	errIdx  int
	stop    error
	stopIdx int
}

// reset clears the shard for the next level, keeping its buffers. Each
// buffer is truncated in its own statement, which writes only its length.
func (sh *parShard) reset() {
	sh.halts = sh.halts[:0]
	sh.events = sh.events[:0]
	sh.next = sh.next[:0]
	sh.nodes = sh.nodes[:0]
	sh.frags = sh.frags[:0]
	sh.steps, sh.haltn, sh.wallUS = 0, 0, 0
	sh.err, sh.stop = nil, nil
}

// parMinFrontier is the frontier size below which a level is expanded by a
// single shard: sharding a near-empty level costs more in goroutine handoff
// than the expansion itself. The merge order is index-based either way, so
// the result does not depend on the shard count.
const parMinFrontier = 8

// MeasureOpts computes ε_σ exactly by a level-synchronous expansion of the
// scheduler tree from the start state. Each depth's frontier is split into
// contiguous index ranges, one per shard, and the shards write their
// children and halts to private buffers that a single-threaded merge
// appends in frontier-index order, numbering the children as the next
// level's nodes. Node order, float summation order and trace emission are
// therefore fixed by the frontier alone, and every view of the measure is
// byte-identical for any worker count. The tree lives in pointer-free
// node records (see ExecMeasure), grown at most once per level. maxDepth
// guards against unbounded schedulers: if the scheduler still assigns
// mass to actions at depth maxDepth, an error is returned identifying the
// offending fragment.
//
// Cancellation and budgets thread through per-shard checkpoints sharing b
// (one state per expanded fragment, one transition per scheduled (action,
// successor) child). A budget-bounded stop returns the fully expanded
// levels so far — an exact sub-probability prefix of ε_σ, possibly of mass
// 0 when the budget ends before the first halting level — with the
// ErrBudgetExceeded-classified error; context termination returns nil with
// ErrCancelled/ErrDeadline. A panic inside a shard (e.g. an injected
// transition.panic fault) surfaces as a *resilience.PanicError return.
func MeasureOpts(ctx context.Context, a psioa.PSIOA, s Scheduler, maxDepth int, b *resilience.Budget, o Options) (*ExecMeasure, error) {
	c := obs.Enter(ctx, obs.LayerMeasure, s.Name())
	defer c.End()
	if err := resilience.FireDelay(ctx, resilience.FaultSlowOp); err != nil {
		return nil, err
	}
	workers := o.workers()
	em := &ExecMeasure{root: a.Start(), tree: make([]treeNode, 1, 8)} // the root, and room for a small tree
	if maxDepth <= 0 {
		// Depth 0 admits only the empty execution: the scheduler is never
		// consulted and ε_σ is the Dirac measure on the start fragment, so
		// Total() == 1 regardless of σ.
		em.halts = []nodeMass{{0, 1}}
		cMeasureCalls.Inc()
		cMeasureHalts.Inc()
		cMeasureFrags.Inc()
		gMeasureSupport.SetMax(1)
		obs.H("sched.measure.support").Observe(1)
		return em, nil
	}
	// The shards read the call and the level being expanded through k. A
	// depth-oblivious scheduler's steps come from its step source: a level
	// whose items end in distinct states compiles each step in place, as
	// no (state, depth) repeats in it, and from the first level that may
	// repeat one (repeatsState) the call compiles its steps into a step
	// table, with each item's last state as a table ID. Any other
	// scheduler's items carry fragments for Choose.
	k := &treeCall{ctx: ctx, s: s, src: newStepSource(a, s, maxDepth, true), b: b,
		call: &c, em: em,
		frontier: []parItem{{0, 0, 1}}}
	expand := k.expand // one func value for every level
	oblivious := k.src.s != nil
	if !oblivious {
		k.frags = []*psioa.Frag{psioa.NewFrag(em.root)}
	}
	defer func() {
		if k.tbl != nil {
			k.tbl.release()
		}
	}()
	var spare []parItem
	var spareFrags []*psioa.Frag
	var steps, halts int64
	var err, stopped error
	// The frontier's nodes are [frontStart, len(em.tree)).
	frontStart := 0
	for lvl := 0; len(k.frontier) > 0; lvl++ {
		frontier := k.frontier
		if oblivious && k.tbl == nil && k.repeatsState() {
			k.tbl = newStepTable(k.src)
			k.tbl.steps = &k.steps
			for i := range frontier {
				frontier[i].sid = k.tbl.intern(k.lastState(frontier[i].node))
			}
		}
		// A level compiled in place reads its items' states from the
		// steps without a lock, so one shard expands it. It has fewer than
		// tableMinFrontier items anyway.
		parts := workers
		if len(frontier) < parMinFrontier || oblivious && k.tbl == nil {
			parts = 1
		}
		k.spans = splitSpans(k.spans, len(frontier), parts)
		for len(k.outs) < len(k.spans) {
			k.outs = append(k.outs, parShard{})
		}
		k.outs = k.outs[:len(k.spans)]
		spans, outs := k.spans, k.outs
		for i := range outs {
			outs[i].reset()
		}
		k.depth = lvl
		// The next frontier reuses the buffer of the level before last; when
		// that is too small it is replaced by one sized for a doubling
		// frontier, so growing trees allocate one buffer per level instead
		// of a chain of append regrowths. At a scheduler's horizon nothing
		// is scheduled, so the last level of a bounded tree — its widest —
		// allocates nothing. Shard 0 appends to it in place: its output
		// leads the merge order, so it needs no private copy.
		want := 2 * len(frontier)
		if k.src.haltsFrom(lvl) {
			want = 0 // every item halts: there is no next level
		}
		if cap(spare) < want {
			spare = make([]parItem, 0, want)
		}
		// The measure's nodes grow once for the level, and so do its
		// halts at the horizon, where every item halts. The other shards'
		// own buffers are sized alike, for their spans.
		if want > 0 {
			em.tree = slices.Grow(em.tree, want)
		} else {
			em.halts = slices.Grow(em.halts, len(frontier))
		}
		outs[0].nodes, outs[0].halts, outs[0].next = em.tree, em.halts, spare[:0]
		for i := 1; i < len(outs); i++ {
			w := spans[i].hi - spans[i].lo
			if want == 0 {
				outs[i].halts = slices.Grow(outs[i].halts, w)
				continue
			}
			outs[i].nodes = slices.Grow(outs[i].nodes, 2*w)
			outs[i].next = slices.Grow(outs[i].next, 2*w)
		}
		if k.frags != nil {
			if cap(spareFrags) < want {
				spareFrags = make([]*psioa.Frag, 0, want)
			}
			outs[0].frags = spareFrags[:0]
		}
		runErr := runShards(len(spans), expand)
		// Deterministic winner: the validation error or checkpoint stop
		// with the smallest global frontier index, independent of worker
		// count (shards partition the frontier, so indices never tie).
		errIdx, stopIdx := -1, -1
		for i := range outs {
			steps += outs[i].steps
			halts += outs[i].haltn
			if outs[i].err != nil && (errIdx < 0 || outs[i].errIdx < errIdx) {
				err, errIdx = outs[i].err, outs[i].errIdx
			}
			if outs[i].stop != nil && (stopIdx < 0 || outs[i].stopIdx < stopIdx) {
				stopped, stopIdx = outs[i].stop, outs[i].stopIdx
			}
		}
		if errIdx < 0 && runErr != nil {
			// A panic escaped a shard, isolated into a PanicError: an error
			// with no partial result.
			err, errIdx = runErr, 0
		}
		if errIdx >= 0 || stopIdx >= 0 {
			if errIdx >= 0 && (stopIdx < 0 || errIdx <= stopIdx) {
				stopped = nil
			} else {
				err = nil
			}
			// The interrupted level is dropped whole, its nodes with it, so
			// the partial does not depend on how the level was split.
			em.tree = em.tree[:frontStart]
			break
		}
		done := k.frags
		k.merge(outs)
		frontStart = len(em.tree) - len(k.frontier)
		if c.Traced() {
			tr := obs.Active()
			for i := range outs {
				for _, ev := range outs[i].events {
					tr.Emit(ev)
				}
			}
		}
		if c.Timed() {
			widths := make([]int64, len(outs))
			items := make([]int64, len(outs))
			walls := make([]int64, len(outs))
			for i := range outs {
				widths[i] = int64(spans[i].hi - spans[i].lo)
				items[i] = outs[i].steps
				walls[i] = outs[i].wallUS
			}
			c.Level(widths, items, walls)
		}
		spare = frontier[:0]
		if done != nil {
			// The level's fragments are dropped: nothing retains one.
			clear(done)
			spareFrags = done[:0]
		}
	}
	em.steps = k.steps.steps
	cMeasureCalls.Inc()
	cMeasureSteps.Add(steps)
	cMeasureHalts.Add(halts)
	// Shards partition each level's frontier, so merged halts are distinct
	// fragments and the halt count is exactly the support size.
	cMeasureFrags.Add(int64(len(em.tree)))
	gMeasureSupport.SetMax(int64(len(em.halts)))
	obs.H("sched.measure.support").Observe(float64(len(em.halts)))
	if err != nil {
		return nil, err
	}
	if stopped != nil {
		if resilience.IsBudget(stopped) {
			return em, stopped
		}
		return nil, stopped
	}
	return em, nil
}

// merge takes the level's output into the measure: shard 0's, which is
// in place, then the other shards' nodes and halts in frontier-index
// order, renumbering their children. The children become the next
// frontier. The merge is the single-threaded retention path, so it owns
// node numbering.
func (k *treeCall) merge(outs []parShard) {
	em := k.em
	em.tree, em.halts = outs[0].nodes, outs[0].halts
	next, frags := outs[0].next, outs[0].frags
	for i := 1; i < len(outs); i++ {
		base := uint32(len(em.tree))
		em.tree = append(em.tree, outs[i].nodes...)
		em.halts = append(em.halts, outs[i].halts...)
		for j := range outs[i].next {
			outs[i].next[j].node += base
		}
		next = append(next, outs[i].next...)
		frags = append(frags, outs[i].frags...)
		clear(outs[i].frags)
	}
	k.frontier = next
	if k.frags != nil {
		k.frags = frags
	}
}

// repeatsState reports whether two items of the frontier may end in the
// same state: certainly from tableMinFrontier items on, and below that
// when two of them do.
func (k *treeCall) repeatsState() bool {
	items := k.frontier
	if len(items) >= tableMinFrontier {
		return true
	}
	for i := 1; i < len(items); i++ {
		q := k.lastState(items[i].node)
		for _, it := range items[:i] {
			if k.lastState(it.node) == q {
				return true
			}
		}
	}
	return false
}

// tableMinFrontier is the level width from which the tree kernel reads a
// step table without looking for a repeated state first: the pairwise
// check grows quadratically, and a level this wide has a next level
// wider still, over which a table amortizes.
const tableMinFrontier = 8

// treeCall is what the shards of one MeasureOpts call read: the call's
// arguments, its step source, table and step set, the measure being built
// and the level being expanded.
type treeCall struct {
	ctx      context.Context
	s        Scheduler
	src      stepSource // the automaton and depth bound; src.s is nil unless s is depth-oblivious
	tbl      *stepTable // nil until a level may repeat a state
	steps    stepSet
	b        *resilience.Budget
	call     *obs.Call // times the call; the shards read Timed and Lap
	em       *ExecMeasure
	depth    int // the level being expanded: every item's length
	frontier []parItem
	frags    []*psioa.Frag // for a scheduler that is not depth-oblivious, frontier's fragments
	spans    []span
	outs     []parShard
}

// expand expands the level's span i into outs[i].
func (k *treeCall) expand(i int) {
	lap := k.call.Lap()
	k.expandShard(k.spans[i].lo, k.spans[i].hi, &k.outs[i])
	k.outs[i].wallUS = lap.US()
}

// lastState returns lstate of node n's fragment while the call runs.
func (k *treeCall) lastState(n uint32) psioa.State {
	if n == 0 {
		return k.em.root
	}
	return k.steps.steps[k.em.tree[n].step].q
}

// fragOf returns the fragment of frontier item j, for an error message:
// the one the frontier keeps, or else a view built from the node records.
func (k *treeCall) fragOf(j int) *psioa.Frag {
	if k.frags != nil {
		return k.frags[j]
	}
	em := k.em
	var chain []uint32
	for n := k.frontier[j].node; n != 0; n = em.tree[n].parent {
		chain = append(chain, em.tree[n].step)
	}
	k.steps.mu.Lock()
	defer k.steps.mu.Unlock()
	f := psioa.NewFrag(em.root)
	for i := len(chain) - 1; i >= 0; i-- {
		st := k.steps.steps[chain[i]]
		f = f.Extend(st.act, st.q)
	}
	return f
}

// expandShard expands frontier items [lo, hi) into out, appending to its
// buffers: same pruning, same validation errors, same (action, successor)
// child order and same checkpoint charges for every shard. A child whose
// reach mass falls below pruneBelow is charged but not kept. A
// depth-oblivious scheduler's steps come from the step source: with a step
// table, each step is a table read that also gives the children's state
// and step IDs; without one, each step is compiled in place. Scheduler
// choices and automaton transitions must be safe for concurrent use (all
// built-in schedulers are; their choice caches are read-mostly concurrent
// maps and their identifying fields are read-only). No fragment is built
// here for a depth-oblivious scheduler, and no key for any: the measure's
// ordered views walk its node records, and a key materializes only when a
// caller asks for it.
func (k *treeCall) expandShard(lo, hi int, out *parShard) {
	src, s, tbl, traced, depth := &k.src, k.s, k.tbl, k.call.Traced(), k.depth
	a, maxDepth := src.a, src.maxDepth
	items := k.frontier[lo:hi]
	ck := resilience.NewCheckpoint(k.ctx, k.b)
	for j := range items {
		node, p := items[j].node, items[j].p
		if stop := ck.Step(1, 0); stop != nil {
			out.stop, out.stopIdx = stop, lo+j
			return
		}
		var (
			sl       *stateSlot
			e        *stepEntry
			f        *psioa.Frag
			q        psioa.State
			sig      sigMemo
			choice   *Choice
			acts     []psioa.Action
			aps      []float64
			disabled int
		)
		switch {
		case tbl != nil:
			sl = tbl.slot(items[j].sid)
			e = tbl.at(sl, depth)
			choice, acts, aps, disabled = e.choice, e.acts, e.aps, e.disabled
		case src.s != nil:
			q = k.lastState(node)
			choice, acts, aps, disabled = src.choose(q, depth, &sig)
		default:
			f = k.frags[lo+j]
			q = f.LState()
			choice = s.Choose(f)
			acts, aps = choice.SupportAndProbs()
		}
		out.steps++
		if !choice.IsSubProb() {
			out.err = fmt.Errorf("sched: scheduler %q returned mass %v > 1 at %v: %w", s.Name(), choice.Total(), k.fragOf(lo+j), ErrOverMass)
			out.errIdx = lo + j
			return
		}
		if halt := choice.Deficit(); halt > pruneBelow {
			out.halts = append(out.halts, nodeMass{node, p * halt})
			out.haltn++
			if traced {
				out.events = append(out.events, obs.Event{Kind: obs.KindSchedHalt, Name: s.Name(), N: int64(depth), V: p * halt})
			}
		}
		if choice.Total() <= pruneBelow {
			continue
		}
		if depth >= maxDepth {
			out.err = fmt.Errorf("sched: scheduler %q schedules past depth %d at fragment %v: %w", s.Name(), maxDepth, k.fragOf(lo+j), ErrDepthExceeded)
			out.errIdx = lo + j
			return
		}
		if src.s == nil {
			disabled = firstDisabled(a.Sig(q), acts, aps)
		}
		var kids int64
		for ai, act := range acts {
			pa := aps[ai]
			if pa <= 0 {
				continue
			}
			if ai == disabled {
				out.err = fmt.Errorf("sched: scheduler %q chose disabled action %q at %v: %w", s.Name(), act, k.fragOf(lo+j), ErrDisabledAction)
				out.errIdx = lo + j
				return
			}
			if traced {
				out.events = append(out.events, obs.Event{Kind: obs.KindSchedStep, Name: s.Name(), Attr: string(act), N: int64(depth), V: p * pa})
			}
			resilience.FirePanic(resilience.FaultTransitionPanic)
			if tbl != nil {
				st := tbl.trans(sl, e, ai)
				for qi, pq := range st.ps {
					if pq <= 0 {
						continue
					}
					kids++
					if pk := p * pa * pq; pk >= pruneBelow {
						out.next = append(out.next, parItem{uint32(len(out.nodes)), st.ids[qi], pk})
						out.nodes = append(out.nodes, treeNode{node, st.steps[qi]})
					}
				}
				continue
			}
			qs, qps := a.Trans(q, act).SupportAndProbs()
			for qi, q2 := range qs {
				pq := qps[qi]
				if pq <= 0 {
					continue
				}
				kids++
				pk := p * pa * pq
				if pk < pruneBelow {
					continue
				}
				out.next = append(out.next, parItem{uint32(len(out.nodes)), 0, pk})
				if f == nil {
					out.nodes = append(out.nodes, treeNode{node, k.steps.add(act, q2)})
					continue
				}
				// Every level of this tree runs here, so its steps are
				// interned: added per child, they would number one per node.
				out.nodes = append(out.nodes, treeNode{node, k.steps.intern(act, q2)})
				out.frags = append(out.frags, f.Extend(act, q2))
			}
		}
		if stop := ck.Step(0, kids); stop != nil {
			out.stop, out.stopIdx = stop, lo+j
			return
		}
	}
	if stop := ck.Finish(); stop != nil {
		out.stop, out.stopIdx = stop, hi
	}
}

// SampleImageOpts estimates the image measure of ε_σ under f from n
// samples, sharded across workers by sample index. One 64-bit draw from the
// caller's stream seeds a pure per-sample substream (rng.Substream), and
// sample keys merge into the distribution in index order — so the result is
// identical for any worker count, including 1, and the caller's stream
// advances by exactly one draw regardless of n. The sample sequence is by
// construction different from the serial-stream SampleImage, which is left
// untouched (its goldens are pinned). A depth-oblivious scheduler samples
// through a step table shared by the shards, with the same draws.
//
// Monte-Carlo estimates stay unbiased only at the full sample count, so
// any interruption returns nil with the classified error (lowest sample
// index wins, deterministically). f must be safe for concurrent calls.
func SampleImageOpts(ctx context.Context, a psioa.PSIOA, s Scheduler, stream *rng.Stream, maxDepth, n int, f func(*psioa.Frag) string, b *resilience.Budget, o Options) (*measure.Dist[string], error) {
	draw, release := fragSampler(a, s, maxDepth)
	defer release()
	return sampleImage(ctx, s.Name(), stream, n, b, o, func(st *rng.Stream) (string, int, error) {
		fr, steps, err := draw(st)
		if err != nil {
			return "", steps, err
		}
		return f(fr), steps, nil
	})
}

// SampleStateImageOpts is SampleImageOpts for a state-local functional of
// a depth-oblivious scheduler's executions: fold(q, d) must equal f(α) for
// every execution α with last state q and length d. Each sample then folds
// to its final (state, depth) and no fragment is built; the draws, and so
// the estimate, are those of SampleImageOpts bit for bit.
func SampleStateImageOpts(ctx context.Context, a psioa.PSIOA, s DepthOblivious, stream *rng.Stream, maxDepth, n int, fold func(q psioa.State, depth int) string, b *resilience.Budget, o Options) (*measure.Dist[string], error) {
	t := newStepTable(newStepSource(a, s, maxDepth, false))
	defer t.release()
	t.intern(a.Start())
	return sampleImage(ctx, s.Name(), stream, n, b, o, func(st *rng.Stream) (string, int, error) {
		sl, depth, _, err := t.sample(st, maxDepth, false)
		if err != nil {
			return "", depth, err
		}
		return fold(sl.q, depth), depth, nil
	})
}

// sampleImage runs n draws sharded across workers, each on its own
// index substream, and merges their keys in index order. draw returns a
// sample's key and steps taken; it must be safe for concurrent calls. A
// shard reseeds one stream per sample and counts its runs and steps once.
func sampleImage(ctx context.Context, name string, stream *rng.Stream, n int, b *resilience.Budget, o Options, draw func(*rng.Stream) (string, int, error)) (*measure.Dist[string], error) {
	c := obs.Enter(ctx, obs.LayerSample, name)
	defer c.End()
	material := stream.Uint64()
	keys := make([]string, n)
	spans := splitSpans(nil, n, o.workers())
	outs := make([]parShard, len(spans))
	sampleRange := func(i int) {
		lo, hi := spans[i].lo, spans[i].hi
		ck := resilience.NewCheckpoint(ctx, b)
		var st rng.Stream
		var runs, drawn int64
		defer func() { cSampleRuns.Add(runs); cSampleSteps.Add(drawn) }()
		for k := lo; k < hi; k++ {
			st.Reseed(material, uint64(k))
			key, steps, err := draw(&st)
			runs, drawn = runs+1, drawn+int64(steps)
			if err != nil {
				outs[i].err, outs[i].errIdx = err, k
				return
			}
			if err := ck.Step(1, int64(steps)); err != nil {
				outs[i].err, outs[i].errIdx = err, k
				return
			}
			keys[k] = key
		}
		if err := ck.Finish(); err != nil {
			outs[i].err, outs[i].errIdx = err, hi
		}
	}
	runErr := runShards(len(spans), func(i int) {
		lap := c.Lap()
		sampleRange(i)
		outs[i].wallUS = lap.US()
	})
	var err error
	errIdx := -1
	for i := range outs {
		if outs[i].err != nil && (errIdx < 0 || outs[i].errIdx < errIdx) {
			err, errIdx = outs[i].err, outs[i].errIdx
		}
	}
	if err == nil {
		err = runErr
	}
	if err != nil {
		// An interrupted run reports no level, as the tree kernel drops an
		// interrupted level whole.
		return nil, err
	}
	if c.Timed() {
		widths := make([]int64, len(outs))
		walls := make([]int64, len(outs))
		for i := range outs {
			widths[i] = int64(spans[i].hi - spans[i].lo)
			walls[i] = outs[i].wallUS
		}
		// Sampling has no levels: the whole run is one level, and every
		// sample in a shard's span was drawn, so items = width.
		c.Level(widths, widths, walls)
	}
	d := measure.New[string]()
	inc := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		d.Add(keys[i], inc)
	}
	return d, nil
}
