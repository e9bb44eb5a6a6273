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
// else insight.FDist's, which images a state-local insight on the DAG and
// a stepped one on the tree.
func treeResult(t *testing.T, r *engine.Runner, ss *engine.SimulateSpec, b *resilience.Budget, treeImage bool) (*engine.SimulateResult, string) {
	t.Helper()
	var auts []psioa.PSIOA
	for _, ref := range ss.Systems {
		a, err := r.Resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		auts = append(auts, a)
	}
	w := psioa.MustCompose(auts...)
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

// chanSpec is the dsed-mix channel job: the one-time-pad channel under the
// priority scheduler, whose masses are dyadic.
func chanSpec(ins string) *engine.SimulateSpec {
	return &engine.SimulateSpec{Systems: []string{"chan:real:x", "chan:env:x:1"}, Sched: "priority",
		Order: []string{"send", "encrypt", "tap", "deliver"}, Bound: 8, Insight: ins}
}

// TestStepFoldRoute: an exact trace job on the channel answers from the
// state-collapsed DAG carrying the trace fold: its report has a
// sched.measure.dag phase and no sched.measure phase, the cache stays
// empty, and the result is byte for byte the one assembled from the tree
// kernel and insight.Image.
func TestStepFoldRoute(t *testing.T) {
	r := walkRunner()
	ss := chanSpec("trace")
	res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: ss})
	if err != nil {
		t.Fatal(err)
	}
	if ph := phases(res); !ph["sched.measure.dag"] || ph["sched.measure"] {
		t.Errorf("phases %v; want sched.measure.dag and no sched.measure", ph)
	}
	if v := r.Cache.Values(); len(v) != 0 {
		t.Errorf("the cache holds %d values, want none", len(v))
	}
	want, _ := treeResult(t, r, ss, nil, true)
	got, _ := json.Marshal(res.Simulate)
	if exp, _ := json.Marshal(want); string(got) != string(exp) {
		t.Errorf("result\n%s\nwant\n%s", got, exp)
	}
}

// TestStepSimulateMatchesTree: exact trace, accept and print jobs give, byte
// for byte, the result assembled from the tree kernel and insight.Image.
// Dyadic worlds — fair walks, the channel under priority, a one-subchain
// ledger under the uniform scheduler, a 0.25 coin — answer from the
// stepped DAG pass, with no sched.measure phase; a 0.3 coin fails the
// exactness rule and falls back to the tree.
func TestStepSimulateMatchesTree(t *testing.T) {
	type job struct {
		ss  *engine.SimulateSpec
		dag bool
	}
	var jobs []job
	for _, n := range []int{2, 8, 12} {
		for _, b := range []int{3, 14, 16} {
			for _, ins := range []string{"trace", "accept:x0", "print:go", "accept:hit_w"} {
				for _, sc := range []string{"greedy", "random"} {
					jobs = append(jobs, job{&engine.SimulateSpec{Systems: []string{fmt.Sprintf("walk:%d", n)}, Sched: sc, Bound: b, Insight: ins}, true})
				}
			}
		}
	}
	for _, ins := range []string{"trace", "accept:x0", "print:go", "accept:result1_x", "print:tap"} {
		coin := func(p string) *engine.SimulateSpec {
			return &engine.SimulateSpec{Systems: []string{"coin:biased:x:" + p, "coin:env:x"}, Bound: 8, Insight: ins}
		}
		jobs = append(jobs, job{chanSpec(ins), true}, job{coin("0.25"), true}, job{coin("0.3"), false},
			job{&engine.SimulateSpec{Systems: []string{"ledger:direct:x:1"}, Sched: "random", Bound: 8, Insight: ins}, true})
	}
	for _, j := range jobs {
		r := walkRunner()
		where := fmt.Sprintf("%v %s bound %d %s", j.ss.Systems, j.ss.Sched, j.ss.Bound, j.ss.Insight)
		res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: j.ss})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		want, _ := treeResult(t, r, j.ss, nil, true)
		got, _ := json.Marshal(res.Simulate)
		if exp, _ := json.Marshal(want); string(got) != string(exp) {
			t.Errorf("%s: result\n%s\nwant\n%s", where, got, exp)
		}
		if ph := phases(res); !ph["sched.measure.dag"] || ph["sched.measure"] == j.dag {
			t.Errorf("%s: phases %v; want sched.measure.dag, and sched.measure only on the fallback", where, ph)
		}
	}
}
