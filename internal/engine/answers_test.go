package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/protocols/coin"
	"repro/internal/resilience"
	"repro/internal/spec"
)

// answerRunner is a runner shaped like dsed's: a pool, a cache and an
// answer store of the given budget.
func answerRunner(maxBytes int64) *engine.Runner {
	r := engine.NewRunner(engine.NewPool(2), engine.NewCache(0))
	r.Answers = engine.NewAnswers(maxBytes)
	return r
}

// mixJobs are the templates of the benchmark's dsed-mix workload (its
// checks, both channel simulations, the ledger simulation and the describe
// pair), a check the expansion tree answers, and a sampled simulation.
func mixJobs() []engine.Job {
	var out []engine.Job
	for _, cs := range append(mixChecks(), treeCoinCheck()) {
		out = append(out, engine.Job{Kind: engine.KindCheck, Check: cs})
	}
	sim := func(ss *engine.SimulateSpec) { out = append(out, engine.Job{Kind: engine.KindSimulate, Simulate: ss}) }
	for m := 0; m < 2; m++ {
		sim(&engine.SimulateSpec{
			Systems: []string{"chan:real:x", fmt.Sprintf("chan:env:x:%d", m)},
			Sched:   "priority", Order: []string{"send", "encrypt", "tap", "deliver"}, Bound: 8,
		})
	}
	sim(&engine.SimulateSpec{Systems: []string{"ledger:direct:x:1"}, Sched: "random", Bound: 8})
	sim(&engine.SimulateSpec{Systems: []string{"coin:biased:x:0.3", "coin:env:x"}, Bound: 4, Samples: 200, Seed: 7})
	out = append(out, engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{
		Systems: []string{"ledger:direct:x:1", "ledger:parity:y:1"},
	}})
	return out
}

// jobName labels a job in failure messages.
func jobName(j engine.Job) string {
	b, _ := json.Marshal(j)
	return string(b)
}

// stored renders a result as the answer store keeps it: no run report.
func stored(t *testing.T, res *engine.Result) string {
	t.Helper()
	c := *res
	c.Report = nil
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// workCounters are the process counters of the work a job does before and
// inside its kernels: resolving refs, composing, fingerprinting, walking,
// measuring, sampling, decoding configurations and reading the cache.
var workCounters = []string{
	"engine.refs.resolved", "psioa.compose.calls", "engine.fingerprints", "psioa.explore.calls",
	"sched.measure.calls", "sched.measure.dag.calls", "sched.sample.runs", "pca.config.decodes",
	"engine.cache.hits", "engine.cache.misses",
}

func readCounters(names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = obs.C(n).Value()
	}
	return out
}

// TestAnswerServesResend: a resent builtin job is answered from the store.
// It resolves, composes, fingerprints, walks and measures nothing: no work
// counter moves, its report meters no state, transition or cache traffic,
// and its one phase is a single engine.answer call. The first run has two
// engine.answer calls, the lookup that missed and the publish. For each
// template, the served result is byte for byte the one a runner without a
// store computes, once the run report is stripped.
func TestAnswerServesResend(t *testing.T) {
	for _, job := range mixJobs() {
		r := answerRunner(engine.AnswerBytes)
		first, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", jobName(job), err)
		}
		if ph := first.Report.Phases; len(ph) == 0 || ph[len(ph)-1].Name != "engine.answer" || ph[len(ph)-1].Calls != 2 {
			t.Errorf("%s: first run phases %+v; want an engine.answer row of 2 calls", jobName(job), ph)
		}
		c0 := readCounters(workCounters)
		h0 := obs.C("engine.answers.hits").Value()
		served, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: resend: %v", jobName(job), err)
		}
		if c1 := readCounters(workCounters); fmt.Sprint(c1) != fmt.Sprint(c0) {
			t.Errorf("%s: resend moved work counters\n%v\nwant\n%v", jobName(job), c1, c0)
		}
		if h := obs.C("engine.answers.hits").Value() - h0; h != 1 {
			t.Errorf("%s: %d answer-store hits, want 1", jobName(job), h)
		}
		rep := served.Report
		if rep.Kind != job.Kind || rep.States != 0 || rep.Transitions != 0 || rep.CacheHits != 0 || rep.CacheMisses != 0 ||
			rep.Levels != 0 || len(rep.Shards) != 0 {
			t.Errorf("%s: served report %+v; want the job's kind and no work", jobName(job), rep)
		}
		if len(rep.Phases) != 1 || rep.Phases[0].Name != "engine.answer" || rep.Phases[0].Calls != 1 {
			t.Errorf("%s: served phases %+v; want one engine.answer call", jobName(job), rep.Phases)
		}
		fresh, err := engine.NewRunner(engine.NewPool(2), engine.NewCache(0)).Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stored(t, served), stored(t, fresh); got != want {
			t.Errorf("%s: served\n%s\nwant the recomputed\n%s", jobName(job), got, want)
		}
		if got, want := stored(t, first), stored(t, fresh); got != want {
			t.Errorf("%s: first run\n%s\nwant\n%s", jobName(job), got, want)
		}
	}
}

// TestAnswersServeOnlyPureJobs: a job with a file ref, or any job on a
// runner whose Resolve is set, is never stored, so a resend runs in full
// and a rewritten file is read again.
func TestAnswersServeOnlyPureJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "left.json")
	job := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left: path, Right: "coin:fair:x", Envs: []string{"coin:env:x"}, Eps: 0.5, Q1: 3,
	}}
	if job.Builtin() {
		t.Fatal("a job with a file ref reads as builtin")
	}
	r := answerRunner(engine.AnswerBytes)
	for _, p1 := range []float64{0.625, 0.75} {
		if err := spec.Save(path, spec.FromTable(coin.Flipper("x", p1))); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Check.MaxDist != p1-0.5 {
			t.Errorf("p1 %g: MaxDist %g, want the file's current %g", p1, res.Check.MaxDist, p1-0.5)
		}
	}
	if st := r.Answers.Stats(); st.Len != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("file-ref job touched the store: %+v", st)
	}

	r = answerRunner(engine.AnswerBytes)
	r.Resolve = spec.Resolve
	builtin := engine.Job{Kind: engine.KindCheck, Check: coinCheck()}
	for i := 0; i < 2; i++ {
		resolved := obs.C("engine.refs.resolved").Value()
		if _, err := r.Run(context.Background(), builtin); err != nil {
			t.Fatal(err)
		}
		if obs.C("engine.refs.resolved").Value() == resolved {
			t.Errorf("run %d on a runner with Resolve set resolved nothing", i)
		}
	}
	if st := r.Answers.Stats(); st.Len != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("runner with Resolve set touched the store: %+v", st)
	}
}

// TestAnswersStoreNoFailure: a partial simulation, a budget-failed check
// and an erroring job leave nothing in the store, so each resend runs
// again and comes to the same outcome.
func TestAnswersStoreNoFailure(t *testing.T) {
	r := answerRunner(engine.AnswerBytes)
	partial := engine.Job{Kind: engine.KindSimulate, BudgetTransitions: 400,
		Simulate: &engine.SimulateSpec{Systems: []string{"ledger:direct:x:2"}, Sched: "random", Bound: 8}}
	budget := engine.Job{Kind: engine.KindCheck, Check: coinCheck(), BudgetTransitions: 8}
	unknown := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left: "coin:nope:x", Right: "coin:fair:x", Envs: []string{"coin:env:x"}, Eps: 0.5, Q1: 3,
	}}
	for i := 0; i < 2; i++ {
		res, err := r.Run(context.Background(), partial)
		if err != nil || !res.Simulate.Partial {
			t.Fatalf("run %d: budgeted simulate = %+v, %v; want a partial result", i, res, err)
		}
		if _, err := r.Run(context.Background(), budget); !errors.Is(err, resilience.ErrBudgetExceeded) {
			t.Fatalf("run %d: budgeted check = %v, want ErrBudgetExceeded", i, err)
		}
		if _, err := r.Run(context.Background(), unknown); err == nil {
			t.Fatalf("run %d: unknown builtin accepted", i)
		}
	}
	if st := r.Answers.Stats(); st.Len != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 6 {
		t.Errorf("store after failed jobs: %+v; want empty, no hit, 6 misses", st)
	}
}

// TestAnswersPlantedEntryMisses: an entry in a job's slot that answers a
// different canonical request, as a hash collision would leave it, reads
// as a miss: the job is computed, and its own answer replaces the entry.
func TestAnswersPlantedEntryMisses(t *testing.T) {
	r := answerRunner(engine.AnswerBytes)
	job := engine.Job{Kind: engine.KindCheck, Check: coinCheck()}
	other := engine.Job{Kind: engine.KindCheck, Check: treeCoinCheck()}
	otherRes, err := engine.NewRunner(nil, nil).Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	r.Answers.Plant(job, other, otherRes)
	want, err := engine.NewRunner(nil, nil).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	for i, hits := range []int64{0, 1} {
		resolved := obs.C("engine.refs.resolved").Value()
		res, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if got := stored(t, res); got != stored(t, want) {
			t.Fatalf("run %d: %s; want the job's own answer %s", i, got, stored(t, want))
		}
		if st := r.Answers.Stats(); st.Hits != hits {
			t.Errorf("run %d: %d hits, want %d", i, st.Hits, hits)
		}
		if ran := obs.C("engine.refs.resolved").Value() != resolved; ran != (hits == 0) {
			t.Errorf("run %d: resolved refs %v, want %v", i, ran, hits == 0)
		}
	}
	if n, _, _ := r.Answers.Entries(); n != 1 {
		t.Errorf("%d entries, want the job's one", n)
	}
}

// TestAnswersByteBudget: a flood of distinct jobs never takes the store
// past its byte budget, keys and entry overhead counted, and the gauge
// reads what the store holds.
func TestAnswersByteBudget(t *testing.T) {
	const budget = 16 << 10
	r := answerRunner(budget)
	for i := 0; i < 120; i++ {
		cs := coinCheck()
		id := fmt.Sprintf("id%03d", i)
		cs.Left, cs.Right, cs.Envs = "coin:biased:"+id+":0.625", "coin:fair:"+id, []string{"coin:env:" + id}
		if _, err := r.Run(context.Background(), engine.Job{Kind: engine.KindCheck, Check: cs}); err != nil {
			t.Fatal(err)
		}
		st := r.Answers.Stats()
		n, keys, values := r.Answers.Entries()
		if st.Bytes > budget || st.MaxBytes != budget {
			t.Fatalf("after %d jobs the store holds %d bytes of a %d budget", i+1, st.Bytes, budget)
		}
		if want := keys + values + int64(n)*engine.AnswerOverhead; st.Bytes != want || st.Len != n {
			t.Fatalf("after %d jobs: %+v; want %d entries of %d bytes", i+1, st, n, want)
		}
		if g := obs.G("engine.answers.bytes").Value(); g != st.Bytes {
			t.Fatalf("after %d jobs the gauge reads %d, the store %d", i+1, g, st.Bytes)
		}
	}
	if st := r.Answers.Stats(); st.Len >= 120 || st.Len == 0 {
		t.Errorf("%d entries after 120 jobs; want some, and evictions", st.Len)
	}
	var none *engine.Answers
	if st := none.Stats(); st != (engine.AnswerStats{}) {
		t.Errorf("nil store stats %+v", st)
	}
}

// TestAnswersConcurrentIdentical: many goroutines sending the same jobs
// at once all get the same answer (run under -race by make race).
func TestAnswersConcurrentIdentical(t *testing.T) {
	r := answerRunner(engine.AnswerBytes)
	jobs := []engine.Job{
		{Kind: engine.KindCheck, Check: coinCheck()},
		{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: 4}},
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		res, err := engine.NewRunner(nil, nil).Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stored(t, res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g + k) % len(jobs)
				res, err := r.Run(context.Background(), jobs[i])
				if err != nil {
					errs <- err
					return
				}
				c := *res
				c.Report = nil
				if b, _ := json.Marshal(&c); string(b) != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s, want %s", g, b, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := r.Answers.Stats(); st.Len != len(jobs) || st.Hits+st.Misses != 64 {
		t.Errorf("store after 64 concurrent runs: %+v; want %d entries", st, len(jobs))
	}
}

// TestJobBuiltin: a job is builtin when every ref of its spec is.
func TestJobBuiltin(t *testing.T) {
	for _, c := range []struct {
		job  engine.Job
		want bool
	}{
		{engine.Job{Kind: engine.KindCheck, Check: coinCheck()}, true},
		{engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{Left: "coin:fair:x", Right: "coin:fair:x", Envs: []string{"envs/e.json"}}}, false},
		{engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{Systems: []string{"coin:fair:x", "w.json"}}}, false},
		{engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{"ledger:direct:x:1"}}}, true},
		{engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: []string{"./ledger"}}}, false},
		// Every spec the job carries counts, not only the one its kind runs.
		{engine.Job{Kind: engine.KindCheck, Check: coinCheck(), Simulate: &engine.SimulateSpec{Systems: []string{"w.json"}}}, false},
	} {
		if got := c.job.Builtin(); got != c.want {
			t.Errorf("%s: Builtin = %v, want %v", jobName(c.job), got, c.want)
		}
	}
}
