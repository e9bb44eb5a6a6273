package engine_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/obs"
	"repro/internal/protocols/coin"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/spec"
)

// seqReport runs the check sequentially and uncached — the baseline every
// engine-backed run must reproduce byte for byte.
func seqReport(t *testing.T, cs *engine.CheckSpec) *core.Report {
	t.Helper()
	r := &engine.Runner{} // no pool, no cache
	rep, err := r.Check(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func coinCheck() *engine.CheckSpec {
	return &engine.CheckSpec{
		Left:  "coin:biased:x:0.625",
		Right: "coin:fair:x",
		Envs:  []string{"coin:env:x"},
		Eps:   0.125,
		Q1:    3, Q2: 3,
	}
}

func chanCheck() *engine.CheckSpec {
	return &engine.CheckSpec{
		Left:      "chan:leaky:x:0.5",
		Right:     "chan:ideal:x",
		Envs:      []string{"chan:env:x:0", "chan:env:x:1"},
		Schema:    "priority",
		Templates: [][]string{{"send", "encrypt", "tap", "notify", "fabricate", "deliver"}},
		Eps:       0.25,
		Q1:        6, Q2: 6,
	}
}

// treeCoinCheck is coinCheck on a 0.3 coin, and treeChanCheck chanCheck on
// a 0.3 leak: their left worlds' masses are not dyadic, so those f-dists
// take the tree route and reach the cache, where the DAG answers the
// dyadic ones of coinCheck and chanCheck uncached.
func treeCoinCheck() *engine.CheckSpec {
	cs := coinCheck()
	cs.Left, cs.Eps = "coin:biased:x:0.3", 0.25
	return cs
}

func treeChanCheck() *engine.CheckSpec {
	cs := chanCheck()
	cs.Left = "chan:leaky:x:0.3"
	return cs
}

// TestPooledCheckIdentical is the tentpole acceptance test: a pooled,
// memoized Implements run must produce a report identical to the
// sequential, uncached run — same pairs, same distances, same ordering —
// on both the coin-flip and the secure-channel examples, cold and warm.
// The tree-route checks hit the cache warm; the dyadic ones, answered on
// the DAG, neither store nor fingerprint anything.
func TestPooledCheckIdentical(t *testing.T) {
	specs := map[string]*engine.CheckSpec{
		"coin":           treeCoinCheck(),
		"channel":        treeChanCheck(),
		"dyadic coin":    coinCheck(),
		"dyadic channel": chanCheck(),
	}
	for name, cs := range specs {
		t.Run(name, func(t *testing.T) {
			want := seqReport(t, cs)
			c := engine.NewCache(0)
			r := engine.NewRunner(engine.NewPool(8), c)
			hits0 := obs.C("engine.cache.hits").Value()
			runs := func() {
				for _, run := range []string{"cold", "warm"} {
					got, err := r.Check(context.Background(), cs)
					if err != nil {
						t.Fatalf("%s: %v", run, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s pooled report differs from sequential:\n got: %s\nwant: %s", run, got, want)
					}
					if got.String() != want.String() {
						t.Errorf("%s rendering differs", run)
					}
				}
			}
			if strings.HasPrefix(name, "dyadic") {
				assertUncached(t, name, c, runs)
				return
			}
			runs()
			if hits := obs.C("engine.cache.hits").Value() - hits0; hits == 0 {
				t.Error("warm re-check produced no cache hits")
			}
		})
	}
}

func TestPooledWitnessIdentical(t *testing.T) {
	a := coin.Flipper("x", 0.75)
	b := coin.Fair("x")
	opt := core.Options{
		Envs:    []psioa.PSIOA{coin.Env("x")},
		Schema:  &sched.ObliviousSchema{},
		Insight: insight.Trace(),
		Eps:     0.25,
		Q1:      3, Q2: 3,
	}
	want, err := core.ImplementsWitness(a, b, core.IdentityWitness(), opt)
	if err != nil {
		t.Fatal(err)
	}
	popt := opt
	popt.Exec = engine.NewPool(8)
	popt.Memo = engine.NewCache(0)
	got, err := core.ImplementsWitness(a, b, core.IdentityWitness(), popt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pooled witness report differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestConcurrentChecksShareCache exercises concurrent Implements runs over
// one pool and one cache (the daemon's steady state); run under -race.
func TestConcurrentChecksShareCache(t *testing.T) {
	cs := coinCheck()
	want := seqReport(t, cs)
	r := engine.NewRunner(engine.NewPool(4), engine.NewCache(0))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := r.Check(context.Background(), cs)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent report differs:\n got: %s\nwant: %s", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestRunnerSimulateMatchesDirect(t *testing.T) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	res, err := r.Simulate(context.Background(), &engine.SimulateSpec{
		Systems: []string{"coin:fair:x", "coin:env:x"},
		Bound:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("samples=0 should be exact")
	}
	w := psioa.MustCompose(mustResolve(t, "coin:fair:x"), mustResolve(t, "coin:env:x"))
	em, err := sched.Measure(w, &sched.Greedy{A: w, Bound: 3, LocalOnly: true}, 4*3+16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != em.Len() || res.TotalMass != em.Total() || res.MaxLen != em.MaxLen() {
		t.Errorf("simulate stats %d/%v/%d differ from direct %d/%v/%d",
			res.Executions, res.TotalMass, res.MaxLen, em.Len(), em.Total(), em.MaxLen())
	}
	for i := 1; i < len(res.Outcomes); i++ {
		a, b := res.Outcomes[i-1], res.Outcomes[i]
		if a.P < b.P || (a.P == b.P && a.Key > b.Key) {
			t.Errorf("outcomes not in canonical order at %d: %+v then %+v", i, a, b)
		}
	}
}

// sigCounter counts the signature reads of the automaton it wraps.
type sigCounter struct {
	psioa.PSIOA
	n int
}

func (c *sigCounter) Sig(q psioa.State) psioa.Signature {
	c.n++
	return c.PSIOA.Sig(q)
}

// TestSchedByNamePriorityReadsNoSignature: the priority scheduler keeps
// its trimmed order entries as prefixes and reads no signature until it
// chooses.
func TestSchedByNamePriorityReadsNoSignature(t *testing.T) {
	w := &sigCounter{PSIOA: psioa.MustCompose(mustResolve(t, "coin:fair:x"), mustResolve(t, "coin:env:x"))}
	s, err := engine.SchedByName(w, "priority", []string{" fl", "res "}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.n != 0 {
		t.Errorf("SchedByName read %d signatures, want 0", w.n)
	}
	if got, want := s.Name(), "priority[3][fl res]"; got != want {
		t.Errorf("name %q, want %q", got, want)
	}
}

func TestRunnerSimulateSampled(t *testing.T) {
	r := engine.NewRunner(nil, nil)
	res, err := r.Simulate(context.Background(), &engine.SimulateSpec{
		Systems: []string{"coin:fair:x", "coin:env:x"},
		Sched:   "random",
		Bound:   3,
		Samples: 200,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("sampled run marked exact")
	}
	if res.Executions != 200 {
		t.Errorf("Executions = %d", res.Executions)
	}
}

func TestRunnerDescribe(t *testing.T) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	res, err := r.DescribeSystems(context.Background(), &engine.DescribeSpec{
		Systems: []string{"coin:fair:x", "chan:real:y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 2 {
		t.Fatalf("Systems = %d", len(res.Systems))
	}
	for _, sd := range res.Systems {
		if sd.States == 0 || sd.Description == "" {
			t.Errorf("empty description for %s: %+v", sd.Ref, sd)
		}
	}
	if res.CompositionBound == "" {
		t.Error("two systems should report a composition bound")
	}
}

// TestRunnerDescribeCompositionBound: the describe job reuses the bounds
// of the components it has described, and its composition report equals
// bounded.CompositionBound, which describes them again.
func TestRunnerDescribeCompositionBound(t *testing.T) {
	for _, systems := range [][]string{
		{"coin:fair:x", "chan:real:y"},
		{"ledger:direct:a:1", "ledger:parity:b:1"},
		{"ledger:direct:a:2", "ledger:parity:b:2"},
	} {
		r := engine.NewRunner(nil, engine.NewCache(0))
		res, err := r.DescribeSystems(context.Background(), &engine.DescribeSpec{Systems: systems})
		if err != nil {
			t.Fatal(err)
		}
		a1, err := spec.Resolve(systems[0])
		if err != nil {
			t.Fatal(err)
		}
		a2, err := spec.Resolve(systems[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := bounded.CompositionBound(a1, a2, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if res.CompositionBound != want.String() {
			t.Errorf("%v: composition bound %q, want %q", systems, res.CompositionBound, want)
		}
	}
}

// TestRunnerDescribeOneWalk: a describe job walks each system once and
// the composite once, so a two-system job moves psioa.explore.calls by 3.
// Each system's row is what the three walks it replaced report: Describe
// of the PCA adapter, QueryWork and Explore of the system.
func TestRunnerDescribeOneWalk(t *testing.T) {
	const limit = 100000
	calls := obs.C("psioa.explore.calls")
	for _, systems := range [][]string{
		{"coin:fair:x", "chan:real:y"},
		{"ledger:direct:a:2", "ledger:parity:b:2"},
	} {
		r := engine.NewRunner(nil, engine.NewCache(0))
		calls0 := calls.Value()
		res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: systems}})
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Value() - calls0; n != 3 {
			t.Errorf("%v: %d psioa.explore calls, want 3", systems, n)
		}
		for i, ref := range systems {
			a, err := spec.Resolve(ref)
			if err != nil {
				t.Fatal(err)
			}
			d, err := bounded.Describe(a, limit)
			if err != nil {
				t.Fatal(err)
			}
			maxQ, total, err := bounded.QueryWork(a, limit)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := psioa.Explore(a, limit)
			if err != nil {
				t.Fatal(err)
			}
			want := engine.SystemDescription{Ref: ref, Description: d.String(), QueryMaxBits: maxQ, QueryTotalBits: total,
				States: len(ex.States), Actions: len(ex.Acts), Truncated: ex.Truncated}
			if got := res.Describe.Systems[i]; got != want {
				t.Errorf("%s: %+v, want %+v", ref, got, want)
			}
		}
	}
}

func TestJobDispatchAndStore(t *testing.T) {
	r := engine.NewRunner(engine.NewPool(2), engine.NewCache(0))
	if _, err := r.Run(context.Background(), engine.Job{Kind: "nope"}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := r.Run(context.Background(), engine.Job{Kind: engine.KindCheck}); err == nil {
		t.Error("check job without spec should fail")
	}

	st := engine.NewStore()
	rec, err := st.Submit(context.Background(), r, engine.Job{Kind: engine.KindCheck, Check: coinCheck()})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.Kind != engine.KindCheck {
		t.Fatalf("bad record: %+v", rec)
	}
	final, err := st.Await(context.Background(), rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != engine.StatusDone || final.Result == nil || final.Result.Check == nil {
		t.Fatalf("job did not complete: %+v", final)
	}
	if !final.Result.Check.Holds {
		t.Error("coin check should hold at ε=0.125")
	}

	bad, err := st.Submit(context.Background(), r, engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{Left: "coin:fair:x", Right: "coin:fair:x", Envs: []string{"no:such:ref"}}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := st.Await(context.Background(), bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != engine.StatusFailed || fin.Err == "" {
		t.Errorf("bad job should fail: %+v", fin)
	}

	if got := st.List(); len(got) != 2 || got[0].ID >= got[1].ID {
		t.Errorf("List = %+v", got)
	}
	if _, ok := st.Get("j9999"); ok {
		t.Error("Get of unknown id succeeded")
	}
	if _, err := st.Await(context.Background(), "j9999"); err == nil {
		t.Error("Await of unknown id succeeded")
	}
}

func mustResolve(t *testing.T, ref string) psioa.PSIOA {
	t.Helper()
	a, err := spec.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
