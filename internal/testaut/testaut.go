// Package testaut provides small, well-understood automata used as fixtures
// throughout the test suites and benchmarks: coin flippers, request/response
// servers, counters and simple environments. They are deliberately tiny so
// that expected execution measures can be computed by hand in tests.
package testaut

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/psioa"
)

// Coin returns a one-shot coin automaton with the given bias:
//
//	q0 --flip(int)--> heads/tails, then outputs "heads"/"tails" and stops.
//
// bias is the probability of heads. Action names are parameterised by id so
// that two coins can be composed without output clashes.
func Coin(id string, bias float64) *psioa.Table {
	flip := psioa.Action("flip_" + id)
	heads := psioa.Action("heads_" + id)
	tails := psioa.Action("tails_" + id)
	d := measure.New[psioa.State]()
	d.Add("h", bias)
	d.Add("t", 1-bias)
	return psioa.NewBuilder(id, "q0").
		AddState("q0", psioa.NewSignature(nil, nil, []psioa.Action{flip})).
		AddState("h", psioa.NewSignature(nil, []psioa.Action{heads}, nil)).
		AddState("t", psioa.NewSignature(nil, []psioa.Action{tails}, nil)).
		AddState("done", psioa.EmptySignature()).
		AddTrans("q0", flip, d).
		AddDet("h", heads, "done").
		AddDet("t", tails, "done").
		MustBuild()
}

// OpenCoin is like Coin but the flip is an *input* action named "go_<id>",
// so an environment controls when the coin flips. Output actions report the
// outcome.
func OpenCoin(id string, bias float64) *psioa.Table {
	goAct := psioa.Action("go_" + id)
	heads := psioa.Action("heads_" + id)
	tails := psioa.Action("tails_" + id)
	d := measure.New[psioa.State]()
	d.Add("h", bias)
	d.Add("t", 1-bias)
	return psioa.NewBuilder(id, "q0").
		AddState("q0", psioa.NewSignature([]psioa.Action{goAct}, nil, nil)).
		AddState("h", psioa.NewSignature([]psioa.Action{goAct}, []psioa.Action{heads}, nil)).
		AddState("t", psioa.NewSignature([]psioa.Action{goAct}, []psioa.Action{tails}, nil)).
		AddState("done", psioa.NewSignature([]psioa.Action{goAct}, nil, nil)).
		AddTrans("q0", goAct, d).
		AddDet("h", heads, "done").
		AddDet("t", tails, "done").
		AddDet("h", goAct, "h").
		AddDet("t", goAct, "t").
		AddDet("done", goAct, "done").
		MustBuild()
}

// CoinEnv returns an environment for OpenCoin(id): it outputs go_<id> once
// and then listens to the outcome, recording it in its state.
func CoinEnv(id string) *psioa.Table {
	goAct := psioa.Action("go_" + id)
	heads := psioa.Action("heads_" + id)
	tails := psioa.Action("tails_" + id)
	listen := psioa.NewSignature([]psioa.Action{heads, tails}, nil, nil)
	return psioa.NewBuilder("env_"+id, "e0").
		AddState("e0", psioa.NewSignature([]psioa.Action{heads, tails}, []psioa.Action{goAct}, nil)).
		AddState("sent", listen).
		AddState("sawH", listen).
		AddState("sawT", listen).
		AddDet("e0", goAct, "sent").
		AddDet("e0", heads, "sawH").
		AddDet("e0", tails, "sawT").
		AddDet("sent", heads, "sawH").
		AddDet("sent", tails, "sawT").
		AddDet("sawH", heads, "sawH").
		AddDet("sawH", tails, "sawT").
		AddDet("sawT", heads, "sawH").
		AddDet("sawT", tails, "sawT").
		MustBuild()
}

// Counter returns an automaton that counts "tick" inputs up to n and then
// outputs "done_<id>".
func Counter(id string, n int) *psioa.Table {
	tick := psioa.Action("tick")
	done := psioa.Action("done_" + id)
	b := psioa.NewBuilder(id, st(0))
	for i := 0; i < n; i++ {
		b.AddState(st(i), psioa.NewSignature([]psioa.Action{tick}, nil, nil))
		b.AddDet(st(i), tick, st(i+1))
	}
	b.AddState(st(n), psioa.NewSignature([]psioa.Action{tick}, []psioa.Action{done}, nil))
	b.AddDet(st(n), tick, st(n))
	b.AddState("fin", psioa.NewSignature([]psioa.Action{tick}, nil, nil))
	b.AddDet(st(n), done, "fin")
	b.AddDet("fin", tick, "fin")
	return b.MustBuild()
}

func st(i int) psioa.State { return psioa.State(fmt.Sprintf("c%d", i)) }

// PingPong returns a pair of automata that exchange ping/pong messages k
// times; useful for composition tests where actions are matched in/out.
func PingPong(k int) (*psioa.Table, *psioa.Table) {
	ping, pong := psioa.Action("ping"), psioa.Action("pong")
	pb := psioa.NewBuilder("pinger", "p0")
	qb := psioa.NewBuilder("ponger", "r0")
	for i := 0; i < k; i++ {
		pb.AddState(psioa.State(fmt.Sprintf("p%d", i)),
			psioa.NewSignature([]psioa.Action{pong}, []psioa.Action{ping}, nil))
		pb.AddState(psioa.State(fmt.Sprintf("w%d", i)),
			psioa.NewSignature([]psioa.Action{pong}, nil, nil))
		pb.AddDet(psioa.State(fmt.Sprintf("p%d", i)), ping, psioa.State(fmt.Sprintf("w%d", i)))
		next := psioa.State(fmt.Sprintf("p%d", i+1))
		if i == k-1 {
			next = "pdone"
		}
		pb.AddDet(psioa.State(fmt.Sprintf("w%d", i)), pong, next)
		pb.AddDet(psioa.State(fmt.Sprintf("p%d", i)), pong, psioa.State(fmt.Sprintf("p%d", i)))

		qb.AddState(psioa.State(fmt.Sprintf("r%d", i)),
			psioa.NewSignature([]psioa.Action{ping}, nil, nil))
		qb.AddState(psioa.State(fmt.Sprintf("s%d", i)),
			psioa.NewSignature([]psioa.Action{ping}, []psioa.Action{pong}, nil))
		qb.AddDet(psioa.State(fmt.Sprintf("r%d", i)), ping, psioa.State(fmt.Sprintf("s%d", i)))
		qb.AddDet(psioa.State(fmt.Sprintf("s%d", i)), ping, psioa.State(fmt.Sprintf("s%d", i)))
		rnext := psioa.State(fmt.Sprintf("r%d", i+1))
		if i == k-1 {
			rnext = "rdone"
		}
		qb.AddDet(psioa.State(fmt.Sprintf("s%d", i)), pong, rnext)
	}
	pb.AddState("pdone", psioa.NewSignature([]psioa.Action{pong}, nil, nil))
	pb.AddDet("pdone", pong, "pdone")
	qb.AddState("rdone", psioa.NewSignature([]psioa.Action{ping}, nil, nil))
	qb.AddDet("rdone", ping, "rdone")
	return pb.MustBuild(), qb.MustBuild()
}

// RandomWalk returns an automaton performing an internal biased random walk
// on a line of n+1 positions, emitting "hit_<id>" when it reaches position
// n. Used to generate larger execution trees for benchmarks.
func RandomWalk(id string, n int, p float64) *psioa.Table {
	step := psioa.Action("step_" + id)
	hit := psioa.Action("hit_" + id)
	b := psioa.NewBuilder(id, "x0")
	for i := 0; i < n; i++ {
		b.AddState(psioa.State(fmt.Sprintf("x%d", i)),
			psioa.NewSignature(nil, nil, []psioa.Action{step}))
		d := measure.New[psioa.State]()
		up := psioa.State(fmt.Sprintf("x%d", i+1))
		down := psioa.State(fmt.Sprintf("x%d", max(0, i-1)))
		if up == down {
			d.Add(up, 1)
		} else {
			d.Add(up, p)
			d.Add(down, 1-p)
		}
		b.AddTrans(psioa.State(fmt.Sprintf("x%d", i)), step, d)
	}
	b.AddState(psioa.State(fmt.Sprintf("x%d", n)),
		psioa.NewSignature(nil, []psioa.Action{hit}, nil))
	b.AddState("end", psioa.EmptySignature())
	b.AddDet(psioa.State(fmt.Sprintf("x%d", n)), hit, "end")
	return b.MustBuild()
}

// RandomSpec parameterises RandomAutomaton.
type RandomSpec struct {
	// States is the number of states (≥ 1).
	States int
	// Actions is the number of distinct action names.
	Actions int
	// Branch is the maximum support size of each transition measure.
	Branch int
	// InputShare in [0,1] is the approximate fraction of actions placed in
	// the input component (the rest split between output and internal).
	InputShare float64
}

// RandomAutomaton generates a pseudo-random valid finite PSIOA from a
// deterministic stream — the workload generator for property-based tests
// and size sweeps. Every state enables every one of its signature actions
// (E1 holds by construction) and all transition measures are probability
// measures over declared states.
func RandomAutomaton(id string, spec RandomSpec, next func() uint64) *psioa.Table {
	if spec.States < 1 {
		spec.States = 1
	}
	if spec.Actions < 1 {
		spec.Actions = 1
	}
	if spec.Branch < 1 {
		spec.Branch = 1
	}
	rnd := func(n int) int { return int(next() % uint64(n)) }
	stateName := func(i int) psioa.State { return psioa.State(fmt.Sprintf("s%d", i)) }
	actName := func(i int) psioa.Action { return psioa.Action(fmt.Sprintf("a%d_%s", i, id)) }

	b := psioa.NewBuilder(id, stateName(0))
	type stateSig struct{ in, out, internal []psioa.Action }
	sigs := make([]stateSig, spec.States)
	for i := 0; i < spec.States; i++ {
		// Each state gets 1..3 actions with disjoint roles.
		n := 1 + rnd(3)
		used := map[int]bool{}
		var ss stateSig
		for j := 0; j < n; j++ {
			k := rnd(spec.Actions)
			if used[k] {
				continue
			}
			used[k] = true
			switch {
			case float64(rnd(1000))/1000 < spec.InputShare:
				ss.in = append(ss.in, actName(k))
			case rnd(2) == 0:
				ss.out = append(ss.out, actName(k))
			default:
				ss.internal = append(ss.internal, actName(k))
			}
		}
		sigs[i] = ss
		b.AddState(stateName(i), psioa.NewSignature(ss.in, ss.out, ss.internal))
	}
	for i := 0; i < spec.States; i++ {
		all := append(append(append([]psioa.Action(nil), sigs[i].in...), sigs[i].out...), sigs[i].internal...)
		for _, a := range all {
			support := 1 + rnd(spec.Branch)
			d := measure.New[psioa.State]()
			remaining := 1.0
			for j := 0; j < support; j++ {
				target := stateName(rnd(spec.States))
				p := remaining
				if j < support-1 {
					p = remaining * (float64(1+rnd(9)) / 10)
				}
				d.Add(target, p)
				remaining -= p
			}
			b.AddTrans(stateName(i), a, d)
		}
	}
	return b.MustBuild()
}
