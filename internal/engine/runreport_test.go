package engine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// runCheckReport runs the coin check job on a fresh runner (fresh cache)
// and returns its run report.
func runCheckReport(t *testing.T) *obs.RunReport {
	t.Helper()
	r := engine.NewRunner(engine.NewPool(4), engine.NewCache(0))
	res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: coinCheck()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("Run attached no report")
	}
	return res.Report
}

// stripTiming zeroes every wall-clock-derived field so two reports of
// identical runs can be compared for the deterministic remainder.
func stripTiming(r *obs.RunReport) *obs.RunReport {
	c := *r
	c.WallUS, c.BarrierWaitUS, c.CacheLockWaitUS = 0, 0, 0
	c.Shards = append([]obs.ShardStat(nil), c.Shards...)
	for i := range c.Shards {
		c.Shards[i].WallUS, c.Shards[i].BarrierWaitUS = 0, 0
	}
	c.Phases = append([]obs.PhaseStat(nil), c.Phases...)
	for i := range c.Phases {
		c.Phases[i].WallUS = 0
		// Quantiles are of the job's own call durations: timing too.
		c.Phases[i].P50US, c.Phases[i].P95US, c.Phases[i].P99US = 0, 0, 0
	}
	return &c
}

// TestRunReportDeterministic runs the same job twice on identical fresh
// state: everything in the two reports except the timing fields must match
// exactly — the work account is a function of the workload, not the
// schedule.
func TestRunReportDeterministic(t *testing.T) {
	a := stripTiming(runCheckReport(t))
	b := stripTiming(runCheckReport(t))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-timing report fields differ between identical runs:\n a: %+v\n b: %+v", a, b)
	}
}

// TestRunReportAccounts sanity-checks the report of a real check job:
// work was metered, the kernels were observed, and the derived statistics
// are consistent with their parts. The 0.3 coin's f-dists take the tree
// route, which the cache serves; the dyadic coin check's take the DAG
// route, and its reports count no cache traffic.
func TestRunReportAccounts(t *testing.T) {
	r := engine.NewRunner(engine.NewPool(4), engine.NewCache(0))
	for run := range 2 {
		res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: coinCheck()})
		if err != nil {
			t.Fatal(err)
		}
		if rep := res.Report; rep.CacheHits != 0 || rep.CacheMisses != 0 || rep.States == 0 && rep.Transitions == 0 {
			t.Errorf("dyadic run %d: %d cache hits, %d misses, %d states, %d transitions; want no cache traffic and metered work",
				run, rep.CacheHits, rep.CacheMisses, rep.States, rep.Transitions)
		}
	}
	job := engine.Job{Kind: engine.KindCheck, Check: treeCoinCheck()}
	cold, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rep := cold.Report
	if rep.Kind != engine.KindCheck {
		t.Errorf("kind = %q, want %q", rep.Kind, engine.KindCheck)
	}
	if rep.States == 0 && rep.Transitions == 0 {
		t.Error("no states or transitions metered — checkpoints do not charge the job's meter")
	}
	if rep.CacheMisses == 0 {
		t.Error("cold run recorded no cache misses")
	}
	if warm.Report.CacheHits == 0 {
		t.Error("warm re-run recorded no cache hits")
	}
	if tot := rep.CacheHits + rep.CacheMisses; tot > 0 {
		want := float64(rep.CacheHits) / float64(tot)
		if rep.CacheHitRatio != want {
			t.Errorf("cache hit ratio = %v, want %v", rep.CacheHitRatio, want)
		}
	}
	if rep.Workers != 4 {
		t.Errorf("workers = %d, want 4", rep.Workers)
	}
	if got, want := rep.ShardImbalance, obs.Imbalance(rep.Shards); got != want {
		t.Errorf("shard imbalance = %v, want %v", got, want)
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}

// TestRunReportOnSyncAndError checks the report rides along even without a
// budget and is absent when the job fails before producing a result.
func TestRunReportOnSyncAndError(t *testing.T) {
	r := engine.NewRunner(nil, nil)
	res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: coinCheck()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.States == 0 {
		t.Errorf("nil-pool run report = %+v, want metered states", res.Report)
	}
	if _, err := r.Run(context.Background(), engine.Job{Kind: "bogus"}); err == nil {
		t.Error("bogus job kind did not fail")
	}
}

// TestRunReportDepthZeroPhases checks that a depth-0 kernel call is
// accounted on both exact routes: a q1 = 0 check computes every f-dist at
// depth 0, on the DAG kernel for the state-local final insight and on the
// tree kernel for the trace insight under a budget, and each call is one
// phase call. A depth-0 measure is one execution of mass 1, dyadic in
// every world, so without a budget the trace insight takes the DAG route
// too, with as many calls and no tree call.
func TestRunReportDepthZeroPhases(t *testing.T) {
	calls := func(insight, phase string, budget int64) int64 {
		cs := coinCheck()
		cs.Q1, cs.Q2, cs.Insight = 0, 0, insight
		res, err := engine.NewRunner(nil, nil).Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: cs, BudgetTransitions: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Report.Phases {
			if p.Name == phase {
				return p.Calls
			}
		}
		return 0
	}
	tree, dag := calls("trace", "sched.measure", 1<<20), calls("final", "sched.measure.dag", 0)
	if tree == 0 || dag != tree {
		t.Errorf("depth-0 phase calls: tree route %d, DAG route %d; want equal and > 0", tree, dag)
	}
	if n, m := calls("trace", "sched.measure.dag", 0), calls("trace", "sched.measure", 0); n != dag || m != 0 {
		t.Errorf("depth-0 unbudgeted trace: %d DAG calls, %d tree calls; want %d and 0", n, m, dag)
	}
}

// TestRunReportExplorePhase checks that every describe job's report counts
// one psioa.explore phase call per system plus one for the composite that
// the Lemma 4.3 report describes under the job's context, the first run
// and a repeat alike, and that a describe job fingerprints nothing: the
// cache memoizes no explorations, so describe jobs do not look them up.
func TestRunReportExplorePhase(t *testing.T) {
	ds := &engine.DescribeSpec{Systems: []string{"com:real:x", "com:env:x:1"}}
	r := engine.NewRunner(nil, engine.NewCache(0))
	fps := obs.C("engine.fingerprints")
	for run := 0; run < 2; run++ {
		fps0 := fps.Value()
		res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindDescribe, Describe: ds})
		if err != nil {
			t.Fatal(err)
		}
		var calls int64
		for _, p := range res.Report.Phases {
			if p.Name == "psioa.explore" {
				calls = p.Calls
			}
		}
		if want := int64(len(ds.Systems) + 1); calls != want {
			t.Errorf("run %d: %d psioa.explore calls, want %d", run, calls, want)
		}
		if n := fps.Value() - fps0; n != 0 {
			t.Errorf("run %d: %d fingerprints, want 0", run, n)
		}
	}
}

// concurrentJobs is a mix of small jobs that share no cache key: distinct
// systems (or, for the leaky coins, a distinct insight), so a job's cache
// traffic cannot depend on which neighbours ran before it.
func concurrentJobs() []engine.Job {
	check := func(cs *engine.CheckSpec) engine.Job { return engine.Job{Kind: engine.KindCheck, Check: cs} }
	sim := func(ss *engine.SimulateSpec) engine.Job { return engine.Job{Kind: engine.KindSimulate, Simulate: ss} }
	return []engine.Job{
		check(coinCheck()),
		check(chanCheck()),
		check(&engine.CheckSpec{Left: "coin:leaky:x:4", Right: "coin:leaky:x:3", Envs: []string{"coin:env:x"},
			Insight: "final", Eps: 0.25, Q1: 3, Q2: 3}),
		sim(&engine.SimulateSpec{Systems: []string{"chan:real:x", "chan:env:x:1"}, Sched: "priority",
			Order: []string{"send", "encrypt", "tap", "deliver"}, Bound: 8}),
		sim(&engine.SimulateSpec{Systems: []string{"ledger:direct:x:2"}, Sched: "random", Bound: 6}),
		sim(&engine.SimulateSpec{Systems: []string{"chan:real:x", "chan:env:x:0"}, Sched: "random", Bound: 8,
			Samples: 300, Seed: 3}),
		{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{"com:real:x", "com:env:x:1"}}},
		{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{"ledger:parity:x:2"}}},
	}
}

// TestConcurrentJobsReportAlone runs eight distinct jobs at once on one
// runner — one pool, one cache — and checks that every job reports what
// it reports when run alone on a fresh runner with the same pool size:
// each job's account comes from its own meter, not from deltas of counters
// its neighbours also move.
func TestConcurrentJobsReportAlone(t *testing.T) {
	const workers = 2
	jobs := concurrentJobs()
	alone := make([]*obs.RunReport, len(jobs))
	for i, job := range jobs {
		res, err := engine.NewRunner(engine.NewPool(workers), engine.NewCache(0)).Run(context.Background(), job)
		if err != nil {
			t.Fatalf("job %d alone: %v", i, err)
		}
		alone[i] = stripTiming(res.Report)
	}
	r := engine.NewRunner(engine.NewPool(workers), engine.NewCache(0))
	together := make([]*obs.RunReport, len(jobs))
	errs := make([]error, len(jobs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job engine.Job) {
			defer wg.Done()
			<-start
			res, err := r.Run(context.Background(), job)
			if errs[i] = err; err == nil {
				together[i] = stripTiming(res.Report)
			}
		}(i, job)
	}
	close(start)
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d concurrent: %v", i, errs[i])
		}
		if !reflect.DeepEqual(together[i], alone[i]) {
			t.Errorf("job %d (%s): concurrent report differs from the job alone:\n together: %+v\n alone:    %+v",
				i, jobs[i].Kind, together[i], alone[i])
		}
	}
}
