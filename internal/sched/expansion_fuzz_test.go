package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// refTree is the expansion tree of ε_σ built fragment by fragment, with
// the kernel's pruning and float expressions: every node keyed, its depth,
// and the halting mass of the halted ones. It is the reference the
// column-held tree is checked against.
type refTree struct {
	keys  []string // every node's key, sorted
	frags map[string]*psioa.Frag
	depth map[string]int
	halt  map[string]float64
}

// errTooBig stops a reference expansion that would grow past refMaxNodes.
var errTooBig = errors.New("reference tree too big")

const refMaxNodes = 4000

func expandRef(a psioa.PSIOA, s sched.Scheduler, maxDepth int) (*refTree, error) {
	rt := &refTree{frags: map[string]*psioa.Frag{}, depth: map[string]int{}, halt: map[string]float64{}}
	type item struct {
		f *psioa.Frag
		p float64
	}
	add := func(f *psioa.Frag) string {
		k := f.Key()
		rt.keys = append(rt.keys, k)
		rt.frags[k], rt.depth[k] = f, f.Len()
		return k
	}
	root := psioa.NewFrag(a.Start())
	if maxDepth <= 0 {
		rt.halt[add(root)] = 1
		return rt, nil
	}
	for level := []item{{root, 1}}; len(level) > 0; {
		var next []item
		for _, it := range level {
			if len(rt.keys) == refMaxNodes {
				return nil, errTooBig
			}
			f, p := it.f, it.p
			k := add(f)
			c := s.Choose(f)
			if !c.IsSubProb() {
				return nil, sched.ErrOverMass
			}
			if h := c.Deficit(); h > 1e-15 {
				rt.halt[k] = p * h
			}
			if c.Total() <= 1e-15 {
				continue
			}
			if f.Len() >= maxDepth {
				return nil, sched.ErrDepthExceeded
			}
			q := f.LState()
			for _, act := range c.SortedSupport() {
				pa := c.P(act)
				if pa <= 0 {
					continue
				}
				if !a.Sig(q).Has(act) {
					return nil, sched.ErrDisabledAction
				}
				eta := a.Trans(q, act)
				for _, q2 := range eta.SortedSupport() {
					if pq := eta.P(q2); pq > 0 && p*pa*pq >= 1e-15 {
						next = append(next, item{f.Extend(act, q2), p * pa * pq})
					}
				}
			}
		}
		level = next
	}
	slices.Sort(rt.keys)
	return rt, nil
}

// upTo returns the reference views of the tree's first levels, those of
// depth < levels: the sorted node keys, the sorted halted keys, every
// node's cone mass and the total, summed in key order as the kernel sums.
func (rt *refTree) upTo(levels int) (nodes, halted []string, cones map[string]float64, total float64) {
	cones = map[string]float64{}
	for _, k := range rt.keys {
		if rt.depth[k] >= levels {
			continue
		}
		nodes = append(nodes, k)
		if _, ok := rt.halt[k]; ok {
			halted = append(halted, k)
		}
	}
	for _, k := range halted {
		p := rt.halt[k]
		total += p
		for g := rt.frags[k]; g != nil; g = g.Parent() {
			cones[g.Key()] += p
		}
	}
	return nodes, halted, cones, total
}

// diffTree compares em with the reference's first levels and describes the
// first difference, or returns "". It checks ForEach and ForEachPrefix
// (order and masses), P and Cone on the measure's own fragments and on
// fragments decoded from their keys, Total, MaxLen and Len.
func diffTree(em *sched.ExecMeasure, rt *refTree, levels int) string {
	nodes, halted, cones, total := rt.upTo(levels)
	var gotNodes, gotHalted []string
	var views []*psioa.Frag
	em.ForEachPrefix(func(f *psioa.Frag) {
		gotNodes = append(gotNodes, f.Key())
		views = append(views, f)
	})
	if !slices.Equal(gotNodes, nodes) {
		return fmt.Sprintf("ForEachPrefix visits %q, want %q", gotNodes, nodes)
	}
	var msg string
	em.ForEach(func(f *psioa.Frag, p float64) {
		k := f.Key()
		gotHalted = append(gotHalted, k)
		if want := rt.halt[k]; math.Float64bits(p) != math.Float64bits(want) && msg == "" {
			msg = fmt.Sprintf("ForEach mass of %q is %v, want %v", k, p, want)
		}
	})
	if msg != "" {
		return msg
	}
	if !slices.Equal(gotHalted, halted) {
		return fmt.Sprintf("ForEach visits %q, want %q", gotHalted, halted)
	}
	maxLen := 0
	for _, k := range halted {
		maxLen = max(maxLen, rt.depth[k])
	}
	if em.Total() != total || em.MaxLen() != maxLen || em.Len() != len(halted) {
		return fmt.Sprintf("Total, MaxLen, Len = %v, %d, %d; want %v, %d, %d", em.Total(), em.MaxLen(), em.Len(), total, maxLen, len(halted))
	}
	for _, f := range views {
		k := f.Key()
		decoded, err := psioa.FragFromKey(k)
		if err != nil {
			return err.Error()
		}
		for _, g := range []*psioa.Frag{f, decoded} {
			if got := em.Cone(g); got != cones[k] {
				return fmt.Sprintf("Cone(%q) = %v, want %v", k, got, cones[k])
			}
			if got := em.P(g); got != rt.halt[k] {
				return fmt.Sprintf("P(%q) = %v, want %v", k, got, rt.halt[k])
			}
		}
		// A step out of the tree: an action no automaton here names.
		if out := f.Extend("\x00out", f.LState()); em.Cone(out) != 0 || em.P(out) != 0 {
			return fmt.Sprintf("fragment %q outside the tree has cone %v, mass %v", out.Key(), em.Cone(out), em.P(out))
		}
	}
	return ""
}

// fuzzTreeWorld returns world k of the fuzz target: a random automaton,
// an adversarially named one, a one-state automaton over a random
// signature, or one of the generated synchronising worlds.
func fuzzTreeWorld(seed uint64, k uint8) psioa.PSIOA {
	worlds := testaut.SyncWorlds()
	switch k := int(k) % (len(worlds) + 3); k {
	case 0:
		spec := testaut.RandomSpec{States: 2 + int(seed%9), Actions: 1 + int(seed/9%5), Branch: 3, InputShare: 0.3}
		return testaut.RandomAutomaton("r", spec, rng.New(seed).Uint64)
	case 1:
		return testaut.AdversarialAut(seed)
	case 2:
		return testaut.SigAut{S: testaut.RandomSig(seed)}
	default:
		sw := worlds[k-3]
		return sw.Make(1 + seed%sw.Seeds)
	}
}

// fuzzTreeSched returns scheduler k of the fuzz target: Greedy, Random,
// Priority over the start state's actions in reverse order, or a
// scheduler that is not depth-oblivious. The last reads the whole
// fragment, halts with half its mass at every step, and gives one action
// a mass of 1e-16, whose branches the kernel prunes.
func fuzzTreeSched(w psioa.PSIOA, k uint8, bound int) sched.Scheduler {
	switch k % 4 {
	case 0:
		return &sched.Greedy{A: w, Bound: bound}
	case 1:
		return &sched.Random{A: w, Bound: bound}
	case 2:
		order := psioa.SortedAll(w.Sig(w.Start()))
		slices.Reverse(order)
		return &sched.Priority{A: w, Bound: bound, Order: order}
	default:
		return &sched.FuncSched{ID: "keyed", Fn: func(f *psioa.Frag) *sched.Choice {
			acts := psioa.SortedAll(w.Sig(f.LState()))
			if f.Len() >= bound || len(acts) == 0 {
				return sched.Halt()
			}
			i := len(f.Key()) % len(acts)
			c := measure.New[psioa.Action]()
			c.Add(acts[i], 0.5)
			if j := (i + 1) % len(acts); j != i {
				c.Add(acts[j], 1e-16)
			}
			return c
		}}
	}
}

// FuzzExpansionTree holds the measure's column-held expansion tree equal
// to a reference expansion of *psioa.Frag nodes sorted by key: every
// ordered view, P and Cone on the tree's own and on decoded fragments,
// the aggregates, and budget-stopped partials, at one to four workers.
func FuzzExpansionTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, world, pick, depth, bound, workers uint8, budget uint16) {
		w := fuzzTreeWorld(seed, world)
		maxDepth, b := int(depth%9), int(bound%7)
		s := fuzzTreeSched(w, pick, b)
		o := sched.Options{Workers: 1 + int(workers%4)}
		where := fmt.Sprintf("%s under %s, depth %d, workers %d", w.ID(), s.Name(), maxDepth, o.Workers)
		rt, rerr := expandRef(w, s, maxDepth)
		if errors.Is(rerr, errTooBig) {
			t.Skip(where, rerr)
		}
		em, err := sched.MeasureOpts(context.Background(), w, s, maxDepth, nil, o)
		if rerr != nil || err != nil {
			if !errors.Is(err, rerr) {
				t.Fatalf("%s: kernel error %v, reference %v", where, err, rerr)
			}
			return
		}
		if msg := diffTree(em, rt, math.MaxInt); msg != "" {
			t.Fatalf("%s: %s", where, msg)
		}
		if budget == 0 {
			return
		}
		part, err := sched.MeasureOpts(context.Background(), w, s, maxDepth, resilience.NewBudget(int64(budget%512), 0, 0), o)
		if err == nil {
			return
		}
		if !resilience.IsBudget(err) || part == nil {
			t.Fatalf("%s budget %d: stop returned %v, %v", where, budget%512, part, err)
		}
		// A partial holds whole levels: those below its deepest node.
		levels := 0
		part.ForEachPrefix(func(f *psioa.Frag) { levels = max(levels, f.Len()+1) })
		if msg := diffTree(part, rt, levels); msg != "" {
			t.Fatalf("%s budget %d partial of %d levels: %s", where, budget%512, levels, msg)
		}
	})
}

// FuzzDAGExecs holds the state-collapsed DAG's exactness rule sound on
// FuzzExpansionTree's worlds, and on a coin of bias 0.1 to 0.9, under the
// depth-oblivious schedulers: a halted execution whose mass is not a
// multiple of 2^-49 (a 0.3 branch, a uniform choice over three actions)
// makes the DAG report false (DAGMeasure.Dyadic), and wherever it reports
// true, the tree kernel succeeds and its Len, Total bits and MaxLen are
// the DAG's Executions, Total and MaxLen. The one exact route
// (insight.Exact) answers a state-local and a stepped insight with the
// tree's aggregates and image, bit for bit, whether the DAG answers or
// the tree does; the state-local image off the dyadic rule is the DAG's.
func FuzzDAGExecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, world, pick, depth, bound, workers uint8, coin bool) {
		w := fuzzTreeWorld(seed, world)
		if coin {
			w = testaut.Coin("c", float64(1+seed%9)/10)
		}
		maxDepth := int(depth % 9)
		s, _ := sched.AsDepthOblivious(fuzzTreeSched(w, pick%3, int(bound%7)))
		where := fmt.Sprintf("%s under %s, depth %d", w.ID(), s.Name(), maxDepth)
		dm, err := sched.MeasureDAGOpts(context.Background(), w, s, maxDepth, nil, sched.Options{})
		if err != nil {
			return
		}
		if dm.Executions() > refMaxNodes {
			t.Skip(where, "has too many paths to expand")
		}
		em, err := sched.MeasureOpts(context.Background(), w, s, maxDepth, nil, sched.Options{Workers: 1 + int(workers%4)})
		if err != nil {
			if dm.Dyadic() {
				t.Fatalf("%s: the DAG reports dyadic masses, the tree fails: %v", where, err)
			}
			return
		}
		em.ForEach(func(fr *psioa.Frag, p float64) {
			if x := math.Ldexp(p, sched.DyadicMax); x != math.Trunc(x) && dm.Dyadic() {
				t.Fatalf("%s: the DAG reports dyadic masses, but %v has mass %v", where, fr, p)
			}
		})
		if dm.Dyadic() && (em.Len() != dm.Executions() || math.Float64bits(em.Total()) != math.Float64bits(dm.Total()) || em.MaxLen() != dm.MaxLen()) {
			t.Fatalf("%s: tree Len, Total, MaxLen = %d, %v, %d; DAG %d, %v, %d", where, em.Len(), em.Total(), em.MaxLen(), dm.Executions(), dm.Total(), dm.MaxLen())
		}
		// The one exact route answers with the tree's aggregates and image,
		// bit for bit, where the DAG answers and where the tree does; a
		// state-local image is the DAG's either way.
		fold := fuzzFold(w, pick/3%2 == 1)
		for _, f := range []insight.Insight{insight.Final(), {ID: "fold", Init: fold.Init, Step: fold.Step}} {
			a, err := insight.Exact(context.Background(), w, s, f, maxDepth, nil, sched.Options{}, true, nil)
			if err != nil {
				t.Fatalf("%s: the route fails on %s where the tree answers: %v", where, f.ID, err)
			}
			img := insight.Image(w, em, f)
			if f.StateLocal != nil && !dm.Dyadic() {
				img = dm.Image(func(q psioa.State, depth int) string { return f.StateLocal(w, q, depth) })
			}
			if a.Executions != em.Len() || math.Float64bits(a.Total) != math.Float64bits(em.Total()) || a.MaxLen != em.MaxLen() {
				t.Fatalf("%s: %s route Len, Total, MaxLen = %d, %v, %d; tree %d, %v, %d", where, f.ID, a.Executions, a.Total, a.MaxLen, em.Len(), em.Total(), em.MaxLen())
			}
			if got, want := renderBits(a.Image), renderBits(img); got != want {
				t.Fatalf("%s: %s route image\n%s\nwant\n%s", where, f.ID, got, want)
			}
		}
		// The pass carrying a fold answers where the state-local one does,
		// with the same rule, and where the rule holds it has the tree's
		// aggregates and the tree's fold image, keys and mass bits.
		fm, err := sched.MeasureDAGFold(context.Background(), w, s, maxDepth, fold, nil, sched.Options{})
		if err != nil || fm.Dyadic() != dm.Dyadic() {
			t.Fatalf("%s: fold pass returned %v, dyadic %v; state-local pass dyadic %v", where, err, err == nil && fm.Dyadic(), dm.Dyadic())
		}
		if !fm.Dyadic() {
			return
		}
		if em.Len() != fm.Executions() || math.Float64bits(em.Total()) != math.Float64bits(fm.Total()) || em.MaxLen() != fm.MaxLen() {
			t.Fatalf("%s: tree Len, Total, MaxLen = %d, %v, %d; fold pass %d, %v, %d", where, em.Len(), em.Total(), em.MaxLen(), fm.Executions(), fm.Total(), fm.MaxLen())
		}
		if got, want := renderBits(fm.FoldImage()), renderBits(em.ImageFold(fold.Init, fold.Ext, fold.Step)); got != want {
			t.Fatalf("%s: fold pass image\n%s\ntree\n%s", where, got, want)
		}
	})
}

// fuzzFold returns a fold of FuzzDAGExecs: trace-like, the external
// actions in order, or accept-style, whether the least action of w's start
// state has occurred externally.
func fuzzFold(w psioa.PSIOA, accept bool) *sched.Fold {
	ext := func(q psioa.State, a psioa.Action) bool {
		sig := w.Sig(q)
		return sig.In.Has(a) || sig.Out.Has(a)
	}
	if !accept {
		return &sched.Fold{Init: "", Ext: ext, Step: func(prev string, a psioa.Action, ext bool) string {
			if !ext {
				return prev
			}
			return prev + string(a) + ";"
		}}
	}
	var acc psioa.Action
	if acts := psioa.SortedAll(w.Sig(w.Start())); len(acts) > 0 {
		acc = acts[0]
	}
	return &sched.Fold{Init: "0", Ext: ext, Step: func(prev string, a psioa.Action, ext bool) string {
		if prev == "0" && a == acc && ext {
			return "1"
		}
		return prev
	}}
}

// renderBits renders d's keys, sorted, with the bits of their masses.
func renderBits(d *measure.Dist[string]) string {
	keys := d.Support()
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%q %x\n", k, math.Float64bits(d.P(k)))
	}
	return b.String()
}

// TestDyadicMaxAbovePrune checks the premise of DAGMeasure.Dyadic: a path
// mass of 2^-DyadicMax, the least one the rule admits, is above the
// kernels' pruning threshold, so no path the rule admits is pruned.
func TestDyadicMaxAbovePrune(t *testing.T) {
	if least := math.Ldexp(1, -sched.DyadicMax); least <= sched.PruneBelow {
		t.Fatalf("2^-%d = %v is not above pruneBelow = %v", sched.DyadicMax, least, sched.PruneBelow)
	}
}
