package sched_test

import (
	"context"
	"testing"

	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// TestTraceImageSigPerStepPair: a trace image reads a signature at most
// once per distinct (parent's step, step) pair of the expansion tree, as
// the pair fixes the parent's last state and the action. On these trees
// that is fewer reads than the tree has nodes but the root.
func TestTraceImageSigPerStepPair(t *testing.T) {
	walk := testaut.RandomWalk("w", 6, 0.5)
	for name, s := range map[string]sched.Scheduler{
		"greedy": &sched.Greedy{A: walk, Bound: 10, LocalOnly: true},
		"random": &sched.Random{A: walk, Bound: 8},
		// Not depth-oblivious: its tree numbers steps by (action, state).
		"func": &sched.FuncSched{ID: "first", Fn: func(f *psioa.Frag) *sched.Choice {
			acts := psioa.SortedLocal(walk.Sig(f.LState()))
			if f.Len() >= 8 || len(acts) == 0 {
				return sched.Halt()
			}
			return measure.Dirac(acts[0])
		}},
	} {
		for _, workers := range []int{1, 2} {
			em, err := sched.MeasureOpts(context.Background(), walk, s, 12, nil, sched.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			parent, step := sched.TreeColumns(em)
			pairs := map[[2]uint32]bool{}
			for n := 1; n < len(parent); n++ {
				ps := ^uint32(0)
				if parent[n] != 0 {
					ps = step[parent[n]]
				}
				pairs[[2]uint32{ps, step[n]}] = true
			}
			ca := &sigCounter{PSIOA: walk}
			insight.Image(ca, em, insight.Trace())
			if ca.n > len(pairs) || len(pairs) >= len(parent)-1 {
				t.Errorf("%s workers %d: trace image read %d signatures; the tree has %d (parent step, step) pairs and %d nodes",
					name, workers, ca.n, len(pairs), len(parent))
			}
		}
	}
}
