package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// The oracle checks every job's answer against values derived without the
// code under test: closed forms from the paper's calibrations (a fair
// one-time pad emulates the ideal channel exactly; a coin biased by δ is
// δ from fair; a pad leaking with probability p is p/2 from a perfect one),
// a dynamic program for the random walks, and, where neither exists, the
// hand-written answers in expected.json.

//go:embed expected.json
var expectedJSON []byte

// expectedAnswers are the recorded answers. Description lengths are for
// six-letter ids: codec.BitLen charges 8 bits per byte, so ids of one
// fixed length keep them independent of the seed.
type expectedAnswers struct {
	// DescribeLedger is keyed by the hosts' subchain count.
	DescribeLedger map[string]describeAnswer `json:"describe_ledger"`
	LedgerSimulate struct {
		Executions int     `json:"executions"`
		Outcomes   int     `json:"outcomes"`
		MaxLen     int     `json:"max_len"`
		MaxP       float64 `json:"max_p"`
		MinP       float64 `json:"min_p"`
	} `json:"ledger_simulate"`
}

// describeAnswer is Lemma B.2's account of a ledger pair: the bounds of
// each host and of their composition, and each host's reachable size.
type describeAnswer struct {
	B1      int   `json:"b1"`
	B2      int   `json:"b2"`
	B12     int   `json:"b12"`
	States  []int `json:"states"`
	Actions []int `json:"actions"`
}

var expected = func() expectedAnswers {
	var e expectedAnswers
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	return e
}()

// checkEmulation expects dynamic secure emulation to hold with ε = 0 for
// the single adversary, over the given number of (environment, scheduler)
// pairs.
func checkEmulation(out []byte, pairs int) error {
	var rep core.EmulationReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return err
	}
	if !rep.Holds || len(rep.PerAdv) != 1 {
		return fmt.Errorf("emulation: holds=%v over %d adversaries, want holds over 1", rep.Holds, len(rep.PerAdv))
	}
	for id, r := range rep.PerAdv {
		if r.MaxDist != 0 || len(r.Pairs) != pairs {
			return fmt.Errorf("emulation: %s: distance %v over %d pairs, want 0 over %d", id, r.MaxDist, len(r.Pairs), pairs)
		}
	}
	return nil
}

func decodeResult(out []byte, kind string) (*engine.Result, error) {
	var res engine.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, err
	}
	if res.Kind != kind {
		return nil, fmt.Errorf("result of kind %q, want %q", res.Kind, kind)
	}
	return &res, nil
}

func checkDescribe(out []byte, chains int) error {
	res, err := decodeResult(out, engine.KindDescribe)
	if err != nil {
		return err
	}
	return checkDescribeResult(res, chains)
}

func checkDescribeResult(res *engine.Result, chains int) error {
	want, ok := expected.DescribeLedger[strconv.Itoa(chains)]
	if !ok {
		return fmt.Errorf("describe: no expected answer for %d subchains", chains)
	}
	d := res.Describe
	if d == nil || len(d.Systems) != 2 {
		return fmt.Errorf("describe: want two system profiles")
	}
	var b1, b2, b12 int
	var c float64
	if _, err := fmt.Sscanf(d.CompositionBound, "B1=%d B2=%d B12=%d c=%g", &b1, &b2, &b12, &c); err != nil {
		return fmt.Errorf("describe: composition bound %q: %v", d.CompositionBound, err)
	}
	if b1 != want.B1 || b2 != want.B2 || b12 != want.B12 {
		return fmt.Errorf("describe: B1=%d B2=%d B12=%d, want %d %d %d", b1, b2, b12, want.B1, want.B2, want.B12)
	}
	for i, s := range d.Systems {
		if s.States != want.States[i] || s.Actions != want.Actions[i] || s.Truncated {
			return fmt.Errorf("describe: %s: %d states, %d actions (truncated=%v), want %d, %d", s.Ref, s.States, s.Actions, s.Truncated, want.States[i], want.Actions[i])
		}
	}
	return nil
}

// walkAnswer is the execution measure of a reflecting fair walk under a
// greedy b-step scheduler, as the dynamic program computes it.
type walkAnswer struct {
	hit        float64            // probability the trace shows the hit
	final      map[string]float64 // final-state distribution
	executions int                // executions in the measure's support
	maxLen     int                // longest execution
}

// walkDP computes walkAnswer for testaut.RandomWalk(id, n, 1/2) under a
// greedy scheduler bounded to b steps, from the walk's definition alone:
// below n a step moves up or down (staying put at 0) with probability 1/2
// each; at n the only action is the hit output, after which nothing is
// enabled. An execution ends when nothing is enabled or after b actions.
// Each cell carries the number of distinct executions reaching it and their
// probability mass.
func walkDP(n, b int) walkAnswer {
	type cell struct {
		paths int
		p     float64
	}
	end := n + 1
	ans := walkAnswer{final: map[string]float64{}}
	halt := func(pos int, c cell, depth int) {
		if c.paths == 0 {
			return
		}
		name := fmt.Sprintf("x%d", pos)
		if pos == end {
			name = "end"
			ans.hit += c.p
		}
		ans.final[name] += c.p
		ans.executions += c.paths
		ans.maxLen = max(ans.maxLen, depth)
	}
	cur := make([]cell, end+1)
	cur[0] = cell{1, 1}
	for depth := 0; depth < b; depth++ {
		next := make([]cell, end+1)
		for pos, c := range cur {
			switch {
			case c.paths == 0:
			case pos == end:
				halt(pos, c, depth)
			case pos == n:
				next[end].paths += c.paths
				next[end].p += c.p
			default:
				for _, to := range []int{pos + 1, max(pos-1, 0)} {
					next[to].paths += c.paths
					next[to].p += c.p / 2
				}
			}
		}
		cur = next
	}
	for pos, c := range cur {
		halt(pos, c, b)
	}
	return ans
}

// walkTolerance bounds the sampled routes' error: by Hoeffding's inequality
// a 20000-sample estimate is off by more than 0.02 with probability at most
// 2·exp(-2·20000·0.02²) ≈ 2e-7 per outcome, and the sample seed is fixed.
const walkTolerance = 0.02

// checkWalk compares a walk job's result with walkDP: exactly for the exact
// routes (every probability is dyadic), within walkTolerance for sampling.
func checkWalk(j walkJob, out []byte) error {
	res, err := decodeResult(out, engine.KindSimulate)
	if err != nil {
		return err
	}
	s := res.Simulate
	if s == nil || s.Partial {
		return fmt.Errorf("walk %s: missing or partial result", j.id)
	}
	want := walkDP(j.n, j.bound)
	if j.route == "sample" {
		if s.Exact || s.Executions != walkSamples || math.Abs(s.TotalMass-1) > 1e-9 {
			return fmt.Errorf("walk %s: sampled result exact=%v executions=%d mass=%v", j.id, s.Exact, s.Executions, s.TotalMass)
		}
		got := map[string]float64{}
		for _, o := range s.Outcomes {
			got[o.Key] = o.P
			if _, ok := want.final[o.Key]; !ok {
				return fmt.Errorf("walk %s: sampled final state %q is unreachable", j.id, o.Key)
			}
		}
		for k, p := range want.final {
			if math.Abs(got[k]-p) > walkTolerance {
				return fmt.Errorf("walk %s: P(final=%s) sampled %v, exact %v", j.id, k, got[k], p)
			}
		}
		return nil
	}
	if !s.Exact || s.Executions != want.executions || s.MaxLen != want.maxLen || s.TotalMass != 1 {
		return fmt.Errorf("walk %s n=%d b=%d: %d executions up to length %d, mass %v; want %d up to %d, mass 1",
			j.id, j.n, j.bound, s.Executions, s.MaxLen, s.TotalMass, want.executions, want.maxLen)
	}
	switch j.route {
	case "trace":
		hit, miss := 0.0, 0.0
		for _, o := range s.Outcomes {
			if strings.Contains(o.Key, "hit_"+j.id) {
				hit += o.P
			} else {
				miss += o.P
			}
		}
		if len(s.Outcomes) > 2 || hit != want.hit || miss != 1-want.hit {
			return fmt.Errorf("walk %s: P(hit)=%v over %d traces, want %v", j.id, hit, len(s.Outcomes), want.hit)
		}
	case "final":
		if len(s.Outcomes) != len(want.final) {
			return fmt.Errorf("walk %s: %d final states, want %d", j.id, len(s.Outcomes), len(want.final))
		}
		for _, o := range s.Outcomes {
			if o.P != want.final[o.Key] {
				return fmt.Errorf("walk %s: P(final=%s)=%v, want %v", j.id, o.Key, o.P, want.final[o.Key])
			}
		}
	}
	return nil
}

// checkMix checks one daemon job's result.
func checkMix(j mixJob, res *engine.Result) error {
	switch j.tmpl {
	case "coin", "chan":
		c := res.Check
		if c == nil || !c.Holds || c.MaxDist != j.dist {
			return fmt.Errorf("%s check %s: %v, want holds at distance %v", j.tmpl, j.id, c, j.dist)
		}
	case "chansim":
		// A one-time pad delivers the message and shows the eavesdropper a
		// uniformly random ciphertext bit.
		s := res.Simulate
		if s == nil || !s.Exact || s.TotalMass != 1 || len(s.Outcomes) != 2 {
			return fmt.Errorf("channel simulation %s: %+v", j.id, s)
		}
		for i, o := range s.Outcomes {
			want := fmt.Sprintf("send%d_%s|tap%d_%s|deliver%d_%s", j.m, j.id, i, j.id, j.m, j.id)
			if o.Key != want || o.P != 0.5 {
				return fmt.Errorf("channel simulation %s: outcome %q p=%v, want %q p=0.5", j.id, o.Key, o.P, want)
			}
		}
	case "ledgersim":
		s, want := res.Simulate, expected.LedgerSimulate
		if s == nil || !s.Exact || math.Abs(s.TotalMass-1) > 1e-9 || s.Executions != want.Executions ||
			len(s.Outcomes) != want.Outcomes || s.MaxLen != want.MaxLen ||
			s.Outcomes[0].P != want.MaxP || s.Outcomes[len(s.Outcomes)-1].P != want.MinP {
			return fmt.Errorf("ledger simulation %s: %+v", j.id, s)
		}
	case "describe":
		return checkDescribeResult(res, 1)
	default:
		return fmt.Errorf("unknown mix template %q", j.tmpl)
	}
	return nil
}
