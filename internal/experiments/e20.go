package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// E20DAGCollapse measures the state-collapsed DAG fast path on a converging
// automaton: the tree kernel's cost is the number of distinct executions
// (2^depth on the walk) while the DAG kernel propagates |states| × depth
// nodes — a super-linear, sub-exponential win. Equivalence is checked bit
// for bit on the dyadic workload up to the deepest bound the tree kernel
// can afford; past that only the DAG runs.
func E20DAGCollapse() (*Table, error) {
	t := &Table{
		ID:     "E20",
		Title:  "state-collapsed DAG kernel: sub-exponential cost on converging automata",
		Header: []string{"bound", "tree execs", "tree time", "dag nodes", "dag time", "speedup", "totals equal"},
		Kernel: "dag",
	}
	w := testaut.RandomWalk("w", 6, 0.5)
	ok := true
	for _, bound := range []int{8, 12, 14, 16} {
		s := &sched.Random{A: w, Bound: bound}
		dob, isOb := sched.AsDepthOblivious(s)
		if !isOb {
			return nil, fmt.Errorf("E20: Random must be depth-oblivious")
		}
		treeStart := time.Now()
		em, err := sched.Measure(w, s, bound+2)
		if err != nil {
			return nil, err
		}
		treeElapsed := time.Since(treeStart)
		nodes0 := obs.C("sched.measure.dag.nodes").Value()
		dagStart := time.Now()
		dm, err := sched.MeasureDAGOpts(context.Background(), w, dob, bound+2, nil, sched.Options{})
		if err != nil {
			return nil, err
		}
		dagElapsed := time.Since(dagStart)
		nodes := obs.C("sched.measure.dag.nodes").Value() - nodes0
		same := dm.Total() == em.Total() && dm.MaxLen() == em.MaxLen()
		ok = ok && same
		speedup := float64(treeElapsed) / float64(dagElapsed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bound), fmt.Sprint(em.Len()), treeElapsed.Round(time.Microsecond).String(),
			fmt.Sprint(nodes), dagElapsed.Round(time.Microsecond).String(),
			f6(speedup), fmt.Sprint(same),
		})
	}
	// Beyond the tree horizon: a bound whose execution tree (~2^40 paths)
	// no tree kernel could expand, finished by the DAG in microseconds.
	deep := &sched.Random{A: w, Bound: 40}
	dob, _ := sched.AsDepthOblivious(deep)
	deepStart := time.Now()
	dm, err := sched.MeasureDAGOpts(context.Background(), w, dob, 42, nil, sched.Options{})
	if err != nil {
		return nil, err
	}
	deepElapsed := time.Since(deepStart)
	t.Rows = append(t.Rows, []string{
		"40", "~2^40 (infeasible)", "-", fmt.Sprint(dm.Classes()),
		deepElapsed.Round(time.Microsecond).String(), "-", "-",
	})
	t.Verdict = verdict(ok, "DAG kernel matches the tree bit for bit and collapses exponential trees to |states|×depth nodes")
	return t, nil
}
