package engine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/psioa"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/testaut"
)

// walkRunner returns a runner that resolves walk:<n> to a fair reflecting
// walk on n+1 positions, flip:<p> to a coin that flips itself with bias p
// and every other reference through internal/spec.
func walkRunner() *engine.Runner {
	r := engine.NewRunner(nil, engine.NewCache(0))
	r.Resolve = func(ref string) (psioa.PSIOA, error) {
		if n, ok := strings.CutPrefix(ref, "walk:"); ok {
			k, err := strconv.Atoi(n)
			return testaut.RandomWalk("w", k, 0.5), err
		}
		if p, ok := strings.CutPrefix(ref, "flip:"); ok {
			bias, err := strconv.ParseFloat(p, 64)
			return testaut.Coin("c", bias), err
		}
		return spec.Resolve(ref)
	}
	return r
}

// treeResult is the result of simulate job ss assembled from the tree
// kernel's measure under budget b, with the error text. Its outcomes are
// the measure's image when treeImage is set or the measure is partial,
// else insight.FDist's, which images a state-local insight on the DAG.
func treeResult(t *testing.T, r *engine.Runner, ss *engine.SimulateSpec, b *resilience.Budget, treeImage bool) (*engine.SimulateResult, string) {
	t.Helper()
	a, err := r.Resolve(ss.Systems[0])
	if err != nil {
		t.Fatal(err)
	}
	w := psioa.MustCompose(a)
	s, err := engine.SchedByName(w, ss.Sched, ss.Order, ss.Bound)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := engine.InsightByName(ss.Insight)
	if err != nil {
		t.Fatal(err)
	}
	depth := ss.MaxDepth
	if depth <= 0 {
		depth = 4*ss.Bound + 16
	}
	em, err := sched.MeasureOpts(context.Background(), w, s, depth, b, sched.Options{})
	if em == nil {
		return nil, err.Error()
	}
	img := insight.Image(w, em, ins)
	if !treeImage && err == nil {
		if img, err = insight.FDist(w, s, ins, depth); err != nil {
			t.Fatal(err)
		}
	}
	res := &engine.SimulateResult{Exact: true, InsightID: ins.ID, Executions: em.Len(), TotalMass: em.Total(),
		MaxLen: em.MaxLen(), Outcomes: engine.Outcomes(img)}
	if err != nil {
		res.Partial, res.Degraded = true, err.Error()
	}
	return res, ""
}

// phases returns the names of a run report's phases.
func phases(res *engine.Result) map[string]bool {
	out := map[string]bool{}
	for _, p := range res.Report.Phases {
		out[p.Name] = true
	}
	return out
}

// TestFinalSimulateMatchesTree: a final-insight simulate job's result is
// byte for byte the one assembled from the tree kernel and, where the DAG
// answers, insight.Image; on the fallback, the image is the DAG's as
// before (its floats differ from the tree image's in the last bits).
// Dyadic walks, and a one-subchain ledger under the uniform scheduler,
// answer from the state-collapsed DAG, so their reports have a
// sched.measure.dag phase and no sched.measure phase. A 0.3 coin, and a
// two-subchain ledger, whose uniform choices are over three actions, fail
// the exactness rule and fall back to the tree.
func TestFinalSimulateMatchesTree(t *testing.T) {
	type job struct {
		sys, sched string
		bound      int
		dag        bool
	}
	var jobs []job
	for _, n := range []int{2, 8, 12} {
		for _, b := range []int{3, 14, 16} {
			jobs = append(jobs, job{fmt.Sprintf("walk:%d", n), "greedy", b, true})
		}
	}
	jobs = append(jobs, job{"flip:0.3", "greedy", 10, false},
		job{"ledger:direct:x:1", "random", 8, true}, job{"ledger:direct:x:2", "random", 8, false})
	for _, j := range jobs {
		r := walkRunner()
		ss := &engine.SimulateSpec{Systems: []string{j.sys}, Sched: j.sched, Bound: j.bound, Insight: "final"}
		res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: ss})
		if err != nil {
			t.Fatalf("%s bound %d: %v", j.sys, j.bound, err)
		}
		want, _ := treeResult(t, r, ss, nil, j.dag)
		got, _ := json.Marshal(res.Simulate)
		if exp, _ := json.Marshal(want); string(got) != string(exp) {
			t.Errorf("%s bound %d: result\n%s\nwant\n%s", j.sys, j.bound, got, exp)
		}
		if ph := phases(res); ph["sched.measure.dag"] != true || ph["sched.measure"] == j.dag {
			t.Errorf("%s bound %d: phases %v; want sched.measure.dag, and sched.measure only on the fallback", j.sys, j.bound, ph)
		}
	}
}

// TestFinalSimulateKeepsTreeFailures: a budgeted final job reports the
// tree's partial measure, and a job whose scheduler fails reports the tree
// kernel's error text, not the DAG's.
func TestFinalSimulateKeepsTreeFailures(t *testing.T) {
	r := walkRunner()
	ss := &engine.SimulateSpec{Systems: []string{"walk:8"}, Sched: "greedy", Bound: 14, Insight: "final"}
	res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: ss, BudgetTransitions: 300})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := treeResult(t, r, ss, resilience.NewBudget(0, 300, 0), true)
	// The budget's diagnostics end with the wall time spent.
	untimed := func(s *engine.SimulateResult) string {
		c := *s
		c.Degraded = c.Degraded[:strings.LastIndex(c.Degraded, ",")]
		b, _ := json.Marshal(c)
		return string(b)
	}
	if !res.Simulate.Partial || untimed(res.Simulate) != untimed(want) {
		t.Errorf("budgeted job: result\n%s\nwant\n%s", untimed(res.Simulate), untimed(want))
	}
	ss.MaxDepth = 3
	_, err = r.Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: ss})
	if _, msg := treeResult(t, r, ss, nil, true); err == nil || err.Error() != msg {
		t.Errorf("failing scheduler: job error %v, want %s", err, msg)
	}
}
