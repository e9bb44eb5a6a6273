package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/testaut"
)

// kernels is the measure-kernels workload: engine.Runner simulate jobs on
// testaut.RandomWalk under a greedy b-step scheduler, computed three ways —
// exact trace insight (tree kernel), exact final-state insight (the final
// image takes the state-collapsed route) and a Monte-Carlo estimate. There
// is no PCA and exploration is tiny; the time goes to the measure kernels,
// the f-dist images and the engine cache.
type kernels struct {
	seed uint64
	pool *engine.Pool
}

// walkSamples is the Monte-Carlo sample count of the sampled route.
const walkSamples = 20000

// A walk job draws its walk length, step bound and route from these.
var (
	walkLengths = [...]int{8, 12}
	walkBounds  = [...]int{14, 16}
	walkRoutes  = [...]string{"trace", "final", "sample"}
)

// walkBlock is how many jobs hold every combination once.
const walkBlock = len(walkLengths) * len(walkBounds) * len(walkRoutes)

// walkJob is one walk simulation.
type walkJob struct {
	id         string
	n, bound   int
	route      string
	sampleSeed uint64
}

// kernelJob returns job i. Jobs come in blocks of walkBlock that hold every
// (walk length, bound, route) combination once, in a seed-drawn order, so
// the job list covers the mix evenly.
func kernelJob(seed uint64, i int) walkJob {
	combos := make([]walkJob, 0, walkBlock)
	for _, n := range walkLengths {
		for _, b := range walkBounds {
			for _, route := range walkRoutes {
				combos = append(combos, walkJob{n: n, bound: b, route: route})
			}
		}
	}
	block := newRand(seed, -2-i/walkBlock)
	block.Shuffle(walkBlock, func(a, b int) { combos[a], combos[b] = combos[b], combos[a] })
	j := combos[i%walkBlock]
	r := newRand(seed, i)
	j.id = newID(r)
	j.sampleSeed = r.Uint64()
	return j
}

func (j walkJob) spec() *engine.SimulateSpec {
	ss := &engine.SimulateSpec{
		Systems: []string{fmt.Sprintf("walk:%s:%d", j.id, j.n)},
		Sched:   "greedy",
		Bound:   j.bound,
		Insight: j.route,
	}
	if j.route == "sample" {
		ss.Insight = "final"
		ss.Samples = walkSamples
		ss.Seed = j.sampleSeed
	}
	return ss
}

// resolveWalk maps walk:<id>:<n> to a reflecting fair walk on n+1
// positions and every other reference to the built-in library.
func resolveWalk(ref string) (psioa.PSIOA, error) {
	rest, ok := strings.CutPrefix(ref, "walk:")
	if !ok {
		return spec.Resolve(ref)
	}
	id, nStr, _ := strings.Cut(rest, ":")
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("bad walk reference %q", ref)
	}
	return testaut.RandomWalk(id, n, 0.5), nil
}

func (k *kernels) prepare(cfg *config) error {
	k.seed = cfg.seed
	k.pool = engine.NewPool(cfg.nproc)
	return nil
}

// warm runs each route once on a short walk.
func (k *kernels) warm() error {
	r := newRand(k.seed, -1)
	for _, route := range walkRoutes {
		j := walkJob{id: newID(r), n: 4, bound: 8, route: route, sampleSeed: r.Uint64()}
		out, err := k.run(j)
		if err != nil {
			return err
		}
		if err := checkWalk(j, out); err != nil {
			return err
		}
	}
	return nil
}

// runner returns a runner with a fresh cache: ids are fresh per job, and a
// cached walk measure holds tens of MB, so a shared cache would only grow.
func (k *kernels) runner() *engine.Runner {
	r := engine.NewRunner(k.pool, engine.NewCache(0))
	r.Resolve = resolveWalk
	return r
}

func (k *kernels) run(j walkJob) ([]byte, error) {
	res, err := k.runner().Run(context.Background(), engine.Job{Kind: engine.KindSimulate, Simulate: j.spec()})
	if err != nil {
		return nil, err
	}
	return canonical(res)
}

func (k *kernels) direct(i int) ([]byte, error) { return k.run(kernelJob(k.seed, i)) }

func (k *kernels) check(i int, out []byte) error { return checkWalk(kernelJob(k.seed, i), out) }

// replay is the runner's simulate job as its layer calls.
func (k *kernels) replay(i int, tr *tracer) ([]byte, error) {
	ss := kernelJob(k.seed, i).spec()
	r := k.runner()
	ctx := context.Background()
	kopt := sched.Options{Workers: k.pool.Workers()}
	auts := make([]psioa.PSIOA, 0, len(ss.Systems))
	for _, ref := range ss.Systems {
		a, err := r.Resolve(ref)
		if err != nil {
			return nil, err
		}
		auts = append(auts, a)
	}
	var w psioa.PSIOA
	err := tr.call("psioa.compose", func() error {
		p, err := psioa.Compose(auts...)
		w = p
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.call("psioa.validate", func() error { return psioa.Validate(w, 200000) }); err != nil {
		return nil, err
	}
	s, err := engine.SchedByName(w, ss.Sched, ss.Order, ss.Bound)
	if err != nil {
		return nil, err
	}
	ins, err := engine.InsightByName(ss.Insight)
	if err != nil {
		return nil, err
	}
	depth := 4*ss.Bound + 16
	var res *engine.SimulateResult
	if ss.Samples > 0 {
		var d *measure.Dist[string]
		err := tr.call("sched.sample", func() (err error) {
			d, err = sched.SampleImageOpts(ctx, w, s, rng.New(ss.Seed), depth, ss.Samples,
				func(fr *psioa.Frag) string { return ins.Apply(w, fr) }, nil, kopt)
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.count("sched.samples", int64(ss.Samples))
		res = &engine.SimulateResult{InsightID: ins.ID, Executions: ss.Samples, TotalMass: d.Total(), Outcomes: outcomeRows(d)}
	} else {
		if err := tr.call("engine.fingerprint", func() error { _, err := r.Cache.Fingerprint(w); return err }); err != nil {
			return nil, err
		}
		var em *sched.ExecMeasure
		err := tr.call("sched.measure", func() (err error) {
			if em, err = r.Cache.MeasureOpts(ctx, w, s, depth, nil, kopt); err == nil {
				em.Len() // builds the measure's sorted view; see replayFDist
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.count("sched.executions", int64(em.Len()))
		var img *measure.Dist[string]
		err = tr.call("insight.fdist", func() (err error) {
			img, err = r.Cache.FDistOpts(ctx, w, s, ins, depth, nil, kopt)
			return err
		})
		if err != nil {
			return nil, err
		}
		res = &engine.SimulateResult{
			Exact: true, InsightID: ins.ID, Executions: em.Len(), TotalMass: em.Total(),
			MaxLen: em.MaxLen(), Outcomes: outcomeRows(img),
		}
	}
	hits, misses, _, _ := r.Cache.Totals()
	tr.count("engine.cache.hits", hits)
	tr.count("engine.cache.misses", misses)
	return canonical(&engine.Result{Kind: engine.KindSimulate, Simulate: res})
}

// outcomeRows lists a distribution the way simulate results present it:
// by probability descending, then key.
func outcomeRows(d *measure.Dist[string]) []engine.SimOutcome {
	out := make([]engine.SimOutcome, 0, d.Len())
	for _, k := range d.Support() {
		out = append(out, engine.SimOutcome{Key: k, P: d.P(k)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Key < out[j].Key
	})
	return out
}
