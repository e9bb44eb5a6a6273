package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/protocols/dynchannel"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/structured"
)

// emulate is the emulate-sessions workload, the paper's motivating
// scenario (E11's shape): a host that creates secure-channel sessions at
// run time, real (one-time pad) against ideal, at two sessions, with the
// session adversary/simulator pair and all four environment message
// vectors. It runs core.SecureEmulates on the library path: sequential, no
// memo, fresh automaton ids per job.
type emulate struct {
	seed     uint64
	sessions int // per job; the warm-up job has one
}

const emulateLimit = 20000

var emulateTemplates = [][]string{
	{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess", "deliver"},
	{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess"},
	{"open", "send", "encrypt", "tap", "notify", "deliver"},
}

// emulateInputs is one job's arguments to core.SecureEmulates.
type emulateInputs struct {
	real, ideal structured.SPSIOA
	cases       []core.AdvSim
	opt         core.Options
}

// emulateJob builds a job at n sessions: a fresh id, and the 2^n
// environment message vectors in a seed-drawn order.
func emulateJob(r *rand.Rand, n int) emulateInputs {
	id := newID(r)
	envs := make([]psioa.PSIOA, 0, 1<<n)
	for v := 0; v < 1<<n; v++ {
		msgs := make([]int, n)
		for s := range msgs {
			msgs[s] = v >> s & 1
		}
		envs = append(envs, dynchannel.Env(id, msgs))
	}
	r.Shuffle(len(envs), func(i, j int) { envs[i], envs[j] = envs[j], envs[i] })
	return emulateInputs{
		real:  dynchannel.Host(id, n, dynchannel.RealKind),
		ideal: dynchannel.Host(id, n, dynchannel.IdealKind),
		cases: []core.AdvSim{{Adv: dynchannel.Adversary(id, n), Sim: dynchannel.Simulator(id, n)}},
		opt: core.Options{
			Envs:    envs,
			Schema:  &sched.PrefixPrioritySchema{Templates: emulateTemplates},
			Insight: insight.Trace(),
			Eps:     0,
			Q1:      10 * n,
			Q2:      10 * n,
		},
	}
}

func (e *emulate) prepare(cfg *config) error {
	e.seed = cfg.seed
	return nil
}

// warm runs the same check at one session.
func (e *emulate) warm() error {
	in := emulateJob(newRand(e.seed, -1), 1)
	out, err := e.run(in)
	if err != nil {
		return err
	}
	return checkEmulation(out, len(emulateTemplates)*len(in.opt.Envs))
}

func (e *emulate) run(in emulateInputs) ([]byte, error) {
	rep, err := core.SecureEmulates(in.real, in.ideal, in.cases, in.opt, emulateLimit)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

func (e *emulate) direct(i int) ([]byte, error) {
	return e.run(emulateJob(newRand(e.seed, i), e.sessions))
}

func (e *emulate) check(_ int, out []byte) error {
	return checkEmulation(out, len(emulateTemplates)<<e.sessions)
}

// replay is core.SecureEmulates as its layer calls: the adversary checks,
// the hide(S‖Adv, AAct) constructions, then the implementation check.
func (e *emulate) replay(i int, tr *tracer) ([]byte, error) {
	in := emulateJob(newRand(e.seed, i), e.sessions)
	rep := &core.EmulationReport{Holds: true, PerAdv: map[string]*core.Report{}}
	for _, cs := range in.cases {
		if err := tr.call("adversary.check", func() error { return adversary.IsAdversaryFor(cs.Adv, in.real, emulateLimit) }); err != nil {
			return nil, err
		}
		if err := tr.call("adversary.check", func() error { return adversary.IsAdversaryFor(cs.Sim, in.ideal, emulateLimit) }); err != nil {
			return nil, err
		}
		var left, right psioa.PSIOA
		err := tr.call("structured.hide", func() (err error) {
			left, err = core.HideAAct(in.real, cs.Adv, emulateLimit)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = tr.call("structured.hide", func() (err error) {
			right, err = core.HideAAct(in.ideal, cs.Sim, emulateLimit)
			return err
		})
		if err != nil {
			return nil, err
		}
		r, err := replayImplements(tr, left, right, in.opt)
		if err != nil {
			return nil, err
		}
		rep.PerAdv[cs.Adv.ID()] = r
		rep.Holds = rep.Holds && r.Holds
	}
	return json.Marshal(rep)
}

// replayImplements is the sequential, memo-less core.Implements as its
// layer calls: compose every environment with both systems, enumerate the
// schema on each composition, compute every right-side perception, then
// match each left scheduler against them.
func replayImplements(tr *tracer, a, b psioa.PSIOA, opt core.Options) (*core.Report, error) {
	type envWork struct {
		env         psioa.PSIOA
		wa, wb      psioa.PSIOA
		left, right []sched.Scheduler
		rights      []*measure.Dist[string]
	}
	depth := max(opt.Q1, opt.Q2)
	works := make([]*envWork, 0, len(opt.Envs))
	for _, env := range opt.Envs {
		w := &envWork{env: env}
		for _, side := range []struct {
			sys psioa.PSIOA
			q   int
			dst *psioa.PSIOA
			ss  *[]sched.Scheduler
		}{{a, opt.Q1, &w.wa, &w.left}, {b, opt.Q2, &w.wb, &w.right}} {
			err := tr.call("psioa.compose", func() error {
				p, err := psioa.Compose(env, side.sys)
				*side.dst = p
				return err
			})
			if err != nil {
				return nil, err
			}
			err = tr.call("sched.enumerate", func() (err error) {
				*side.ss, err = opt.Schema.Enumerate(*side.dst, side.q)
				return err
			})
			if err != nil {
				return nil, err
			}
			tr.count("sched.schedulers", int64(len(*side.ss)))
		}
		works = append(works, w)
	}
	for _, w := range works {
		for _, s2 := range w.right {
			d2, err := replayFDist(tr, w.wb, s2, opt.Insight, depth)
			if err != nil {
				return nil, fmt.Errorf("right scheduler %s: %w", s2.Name(), err)
			}
			w.rights = append(w.rights, d2)
		}
	}
	rep := &core.Report{Holds: true}
	for _, w := range works {
		for _, s1 := range w.left {
			d1, err := replayFDist(tr, w.wa, s1, opt.Insight, depth)
			if err != nil {
				return nil, fmt.Errorf("left scheduler %s: %w", s1.Name(), err)
			}
			best, bestName := math.Inf(1), ""
			for j, d2 := range w.rights {
				t0 := time.Now()
				d := insight.Distance(d1, d2)
				tr.fine("insight.distance", time.Since(t0))
				if d < best {
					best, bestName = d, w.right[j].Name()
				}
			}
			pr := core.PairResult{Env: w.env.ID(), Sched: s1.Name(), Dist: best, OK: best <= opt.Eps+measure.Eps}
			if pr.OK {
				pr.Matched = bestName
			} else {
				rep.Holds = false
			}
			if pr.Dist > rep.MaxDist && !math.IsInf(pr.Dist, 1) {
				rep.MaxDist = pr.Dist
			}
			rep.Pairs = append(rep.Pairs, pr)
		}
	}
	sort.Slice(rep.Pairs, func(i, j int) bool {
		p, q := rep.Pairs[i], rep.Pairs[j]
		if p.Env != q.Env {
			return p.Env < q.Env
		}
		if p.Sched != q.Sched {
			return p.Sched < q.Sched
		}
		return p.Matched < q.Matched
	})
	return rep, nil
}

// replayFDist is insight.FDistOpts on its exact-tree route, split into the
// measure kernel and the insight image. An execution measure builds its
// sorted, keyed view of the executions lazily, on first use; the replay
// forces it inside the measure span, so that work counts as the kernel's.
func replayFDist(tr *tracer, w psioa.PSIOA, s sched.Scheduler, f insight.Insight, depth int) (*measure.Dist[string], error) {
	var em *sched.ExecMeasure
	err := tr.call("sched.measure", func() (err error) {
		if em, err = sched.MeasureOpts(context.Background(), w, s, depth, nil, sched.Options{}); err == nil {
			em.Len()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.count("sched.executions", int64(em.Len()))
	var img *measure.Dist[string]
	tr.call("insight.fdist", func() error {
		img = em.Image(func(fr *psioa.Frag) string { return f.Apply(w, fr) })
		return nil
	})
	return img, nil
}
