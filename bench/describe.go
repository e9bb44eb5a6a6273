package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bounded"
	"repro/internal/engine"
	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/spec"
)

// describe is the describe-ledger workload (E2's shape): engine.Runner
// describe jobs on a direct + parity dynamic-ledger pair with three
// subchains each. Exploring these PCAs decodes a configuration string on
// every signature and transition query, and the composite has tens of
// thousands of states; the job runs no scheduler schema, no measure kernel
// and no HTTP.
type describe struct {
	seed   uint64
	chains int // subchains per host; the warm-up job has one
	pool   *engine.Pool
}

// describeJob returns a job's two system references with fresh ids.
func describeJob(seed uint64, i, chains int) []string {
	r := newRand(seed, i)
	a, b := newID(r), newID(r)
	for b == a {
		b = newID(r)
	}
	return []string{fmt.Sprintf("ledger:direct:%s:%d", a, chains), fmt.Sprintf("ledger:parity:%s:%d", b, chains)}
}

func (d *describe) prepare(cfg *config) error {
	d.seed = cfg.seed
	d.pool = engine.NewPool(cfg.nproc)
	return nil
}

// warm describes a one-subchain pair.
func (d *describe) warm() error {
	out, err := d.run(describeJob(d.seed, -1, 1))
	if err != nil {
		return err
	}
	return checkDescribe(out, 1)
}

// run is one describe job on the runner. Every job gets a fresh cache: its
// ids are fresh, so a shared cache would only hold dead entries.
func (d *describe) run(systems []string) ([]byte, error) {
	r := engine.NewRunner(d.pool, engine.NewCache(0))
	res, err := r.Run(context.Background(), engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{Systems: systems}})
	if err != nil {
		return nil, err
	}
	return canonical(res)
}

func (d *describe) direct(i int) ([]byte, error) {
	return d.run(describeJob(d.seed, i, d.chains))
}

func (d *describe) check(_ int, out []byte) error { return checkDescribe(out, d.chains) }

// replay is the runner's describe job as its layer calls, with every PCA
// wrapped so its method calls are timed too.
func (d *describe) replay(i int, tr *tracer) ([]byte, error) {
	const limit = 100000
	cache := engine.NewCache(0)
	out := &engine.DescribeResult{}
	var auts []psioa.PSIOA
	for _, ref := range describeJob(d.seed, i, d.chains) {
		a, err := spec.Resolve(ref)
		if err != nil {
			return nil, err
		}
		x, ok := a.(*pca.ConfigAutomaton)
		if !ok {
			return nil, fmt.Errorf("%s is a %T, not a configuration automaton", ref, a)
		}
		t := &timedPCA{x: x, tr: tr}
		auts = append(auts, t)
		var desc *bounded.Desc
		err = tr.call("bounded.describe", func() (err error) {
			desc, err = bounded.Describe(pca.DescAdapter{PCA: t}, limit)
			return err
		})
		if err != nil {
			return nil, err
		}
		var maxQ, total int64
		err = tr.call("bounded.querywork", func() (err error) {
			maxQ, total, err = bounded.QueryWork(t, limit)
			return err
		})
		if err != nil {
			return nil, err
		}
		// Fingerprinting explores the automaton; the cache memoizes the
		// fingerprint by identity, so the explore call below does not
		// repeat it.
		err = tr.call("engine.fingerprint", func() error {
			_, err := cache.Fingerprint(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		var ex *psioa.Exploration
		err = tr.call("engine.explore", func() (err error) {
			ex, err = cache.ExploreCtx(context.Background(), t, limit, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.Systems = append(out.Systems, engine.SystemDescription{
			Ref:            ref,
			Description:    desc.String(),
			QueryMaxBits:   maxQ,
			QueryTotalBits: total,
			States:         len(ex.States),
			Actions:        len(ex.Acts),
			Truncated:      ex.Truncated,
		})
	}
	err := tr.call("bounded.compbound", func() error {
		cb, err := bounded.CompositionBound(auts[0], auts[1], limit)
		if err == nil {
			out.CompositionBound = cb.String()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	hits, misses, _, _ := cache.Totals()
	tr.count("engine.cache.hits", hits)
	tr.count("engine.cache.misses", misses)
	return canonical(&engine.Result{Kind: engine.KindDescribe, Describe: out})
}

// canonical renders a job result without the fields that legitimately
// differ between two runs of the same job (its telemetry report and the
// worker that computed it).
func canonical(res *engine.Result) ([]byte, error) {
	c := *res
	c.Report = nil
	c.WorkerID = ""
	return json.Marshal(&c)
}

// timedPCA wraps a configuration automaton so that every PCA method call the
// layers above make is timed and charged to the enclosing span. The ledger
// hosts decode their configuration string on each of these calls, so this
// is where PCA decoding lands.
type timedPCA struct {
	x  *pca.ConfigAutomaton
	tr *tracer
}

func (p *timedPCA) ID() string             { return p.x.ID() }
func (p *timedPCA) Start() psioa.State     { return p.x.Start() }
func (p *timedPCA) Registry() pca.Registry { return p.x.Registry() }

// pcaCall times one PCA method call.
func pcaCall[T any](tr *tracer, call func() T) T {
	t0 := time.Now()
	v := call()
	tr.fine("pca", time.Since(t0))
	return v
}

func (p *timedPCA) Sig(q psioa.State) psioa.Signature {
	return pcaCall(p.tr, func() psioa.Signature { return p.x.Sig(q) })
}

func (p *timedPCA) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	return pcaCall(p.tr, func() *psioa.Dist { return p.x.Trans(q, a) })
}

func (p *timedPCA) Config(q psioa.State) *pca.Config {
	return pcaCall(p.tr, func() *pca.Config { return p.x.Config(q) })
}

func (p *timedPCA) Created(q psioa.State, a psioa.Action) []string {
	return pcaCall(p.tr, func() []string { return p.x.Created(q, a) })
}

func (p *timedPCA) HiddenActions(q psioa.State) psioa.ActionSet {
	return pcaCall(p.tr, func() psioa.ActionSet { return p.x.HiddenActions(q) })
}

func (p *timedPCA) CompatAt(q psioa.State) error {
	return pcaCall(p.tr, func() error { return p.x.CompatAt(q) })
}
