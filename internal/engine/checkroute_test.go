package engine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/psioa"
)

// mixChecks are the check shapes of the benchmark's dsed-mix workload: a
// leaky or biased coin against the fair one, and a leaky one-time-pad
// channel against the real one under the priority schema. Their masses are
// dyadic.
func mixChecks() []*engine.CheckSpec {
	var out []*engine.CheckSpec
	coin := func(left string, eps float64) {
		out = append(out, &engine.CheckSpec{Left: left, Right: "coin:fair:x", Envs: []string{"coin:env:x"}, Eps: eps, Q1: 3})
	}
	for k := 2; k <= 4; k++ {
		coin(fmt.Sprintf("coin:leaky:x:%d", k), 1/float64(int(1)<<k))
	}
	coin("coin:biased:x:0.625", 0.125)
	coin("coin:biased:x:0.75", 0.25)
	for _, leak := range []float64{0.5, 0.25, 0.125} {
		out = append(out, &engine.CheckSpec{
			Left: fmt.Sprintf("chan:leaky:x:%g", leak), Right: "chan:real:x",
			Envs:   []string{"chan:env:x:0", "chan:env:x:1"},
			Schema: "priority", Templates: [][]string{{"send", "encrypt", "tap", "deliver"}},
			Eps: leak / 2, Q1: 6,
		})
	}
	return out
}

// TestCheckRoute: a trace check of dsed-mix's shapes answers every f-dist
// on the state-collapsed DAG. Its report has a sched.measure.dag phase, no
// sched.measure phase and no psioa.explore phase (no fingerprint), the
// cache stays empty, and its result is byte for byte the one of the same
// check with the insight's Step set to nil, which images every f-dist on
// the expansion tree.
func TestCheckRoute(t *testing.T) {
	for _, cs := range mixChecks() {
		c := engine.NewCache(0)
		res, err := engine.NewRunner(engine.NewPool(2), c).Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: cs})
		if err != nil {
			t.Fatalf("%s: %v", cs.Left, err)
		}
		if ph := phases(res); !ph["sched.measure.dag"] || ph["sched.measure"] || ph["psioa.explore"] {
			t.Errorf("%s: phases %v; want sched.measure.dag, and neither sched.measure nor psioa.explore", cs.Left, ph)
		}
		if c.Len() != 0 {
			t.Errorf("%s: the cache holds %d entries, want none", cs.Left, c.Len())
		}
		schema, err := engine.SchemaByName(cs.Schema, cs.Templates)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := engine.InsightByName(cs.Insight)
		if err != nil {
			t.Fatal(err)
		}
		ins.Step = nil
		envs := make([]psioa.PSIOA, len(cs.Envs))
		for i, ref := range cs.Envs {
			envs[i] = mustResolve(t, ref)
		}
		tree, err := core.Implements(mustResolve(t, cs.Left), mustResolve(t, cs.Right), core.Options{
			Envs: envs, Schema: schema, Insight: ins, Eps: cs.Eps, Q1: cs.Q1, Q2: cs.Q2, MaxDepth: cs.MaxDepth,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(res.Check)
		if want, _ := json.Marshal(tree); string(got) != string(want) {
			t.Errorf("%s: report\n%s\nwant the tree's\n%s", cs.Left, got, want)
		}
	}
}
