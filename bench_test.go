// Benchmarks for the reproduction experiment suite (E1–E18, E20, E22, see
// DESIGN.md §4 and EXPERIMENTS.md) plus micro-benchmarks of the framework
// kernels.
// Each experiment benchmark exercises the same code path as the
// corresponding cmd/dsebench table.
package dse_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/adversary"
	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/pca"
	"repro/internal/protocols/channel"
	"repro/internal/protocols/coin"
	"repro/internal/protocols/coinflip"
	"repro/internal/protocols/commitment"
	"repro/internal/protocols/dynchannel"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/structured"
	"repro/internal/testaut"
)

// BenchmarkE1CompositionBound measures the Lemma 4.3 description-bound
// computation for a PSIOA pair.
func BenchmarkE1CompositionBound(b *testing.B) {
	a1 := testaut.Counter("a1", 16)
	a2 := testaut.Counter("a2", 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bounded.CompositionBound(a1, a2, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2PCACompositionBound measures the Lemma B.2 bound computation
// for composed dynamic ledgers.
func BenchmarkE2PCACompositionBound(b *testing.B) {
	x1, _ := ledger.Host("a", 2, ledger.Direct)
	x2, _ := ledger.Host("b", 2, ledger.Parity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp, err := pca.ComposePCA(x1, x2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bounded.Describe(comp, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3HidingBound measures the Lemma 4.5 bound computation.
func BenchmarkE3HidingBound(b *testing.B) {
	a := testaut.Counter("a", 16)
	s := dse.NewActionSet("done_a")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bounded.HidingBound(a, s, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDescribeJob measures one engine describe job on the
// describe-ledger workload's pair of three-subchain ledger hosts: each
// system described, the composite described for Lemma 4.3's report.
// Profile the layer with -cpuprofile.
func BenchmarkDescribeJob(b *testing.B) {
	job := engine.Job{Kind: engine.KindDescribe, Describe: &engine.DescribeSpec{
		Systems: []string{"ledger:direct:a:3", "ledger:parity:b:3"}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := engine.NewRunner(nil, engine.NewCache(0))
		if _, err := r.Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckJob measures one engine check job of the dsed-mix "chan"
// template: a leaky secure channel against the real one, two environments,
// the priority schema, Q1 = 6. One runner serves every iteration, as the
// daemon does, and each iteration names its automata afresh, so no answer
// is cached: every iteration enumerates, fingerprints and measures its
// worlds. Profile the check path with -cpuprofile.
func BenchmarkCheckJob(b *testing.B) {
	r := engine.NewRunner(nil, engine.NewCache(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("c%d", i)
		job := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
			Left: "chan:leaky:" + id + ":0.5", Right: "chan:real:" + id,
			Envs:   []string{"chan:env:" + id + ":0", "chan:env:" + id + ":1"},
			Schema: "priority", Templates: [][]string{{"send", "encrypt", "tap", "deliver"}},
			Eps: 0.25, Q1: 6,
		}}
		if _, err := r.Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Transitivity measures a full witness-checked transitivity
// instance (Theorem 4.16).
func BenchmarkE4Transitivity(b *testing.B) {
	delta := 0.0625
	a1 := coin.Flipper("x", 0.5+2*delta)
	a3 := coin.Fair("x")
	w13 := core.ComposeWitnesses(coin.Flipper("x", 0.5+delta), core.IdentityWitness(), core.IdentityWitness())
	opt := core.Options{
		Envs: []psioa.PSIOA{coin.Env("x")}, Schema: &sched.ObliviousSchema{},
		Insight: insight.Trace(), Eps: 2 * delta, Q1: 3, Q2: 3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.ImplementsWitness(a1, a3, w13, opt)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// BenchmarkE5Composability measures the Lemma 4.13 conclusion check.
func BenchmarkE5Composability(b *testing.B) {
	delta := 0.125
	left, right, err := core.ComposeContext(coin.Fair("y"), coin.Flipper("x", 0.5+delta), coin.Fair("x"))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{
		Envs:    []psioa.PSIOA{coin.Env("x")},
		Schema:  &sched.PrefixPrioritySchema{Templates: [][]string{{"flip_x", "result"}}},
		Insight: insight.Trace(), Eps: delta, Q1: 4, Q2: 4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.Implements(left, right, opt)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// BenchmarkE6FamilyCheck measures one family-member implementation check of
// the Lemma 4.14 experiment.
func BenchmarkE6FamilyCheck(b *testing.B) {
	fam := coin.Family("x")
	fair := coin.FairFamily("x")
	opt := core.Options{
		Envs: []psioa.PSIOA{coin.Env("x")}, Schema: &sched.ObliviousSchema{},
		Insight: insight.Trace(), Eps: bounded.Negl(2)(6), Q1: 3, Q2: 3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.Implements(fam(6), fair(6), opt)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// BenchmarkE7DummyForward measures the Lemma 4.29 pipeline: transport a
// scheduler through Forward^s and compare the two worlds' perceptions.
func BenchmarkE7DummyForward(b *testing.B) {
	env := channel.Env("x", 1)
	a := channel.Real("x")
	adv := psioa.RenameMap(channel.Eavesdropper("x"), channel.G("x"))
	ctx, err := adversary.NewForwardCtx(env, a, adv, channel.G("x"), 10000)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := (&sched.PrefixPrioritySchema{Templates: [][]string{
		{"send", "encrypt", "g_tap", "guess", "deliver"},
	}}).Enumerate(ctx.W1, 8)
	if err != nil {
		b.Fatal(err)
	}
	s1 := ss[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s2 := ctx.ForwardSched(s1)
		d1, err := insight.FDist(ctx.W1, s1, insight.Trace(), 30)
		if err != nil {
			b.Fatal(err)
		}
		d2, err := insight.FDist(ctx.W2, s2, insight.Trace(), 30)
		if err != nil {
			b.Fatal(err)
		}
		if insight.Distance(d1, d2) > 1e-9 {
			b.Fatal("lemma 4.29 violated")
		}
	}
}

// BenchmarkE8SecureEmulation measures a full single-instance OTP
// secure-emulation check (Def 4.26).
func BenchmarkE8SecureEmulation(b *testing.B) {
	real := channel.Real("x")
	ideal := channel.Ideal("x")
	cases := []core.AdvSim{{Adv: channel.Eavesdropper("x"), Sim: channel.SimFor("x")}}
	opt := core.Options{
		Envs: []psioa.PSIOA{channel.Env("x", 0), channel.Env("x", 1)},
		Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
			{"send", "encrypt", "tap", "notify", "fabricate", "g_tap", "guess", "deliver"},
			{"send", "encrypt", "tap", "notify", "deliver"},
		}},
		Insight: insight.Trace(), Eps: 0, Q1: 8, Q2: 8,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.SecureEmulates(real, ideal, cases, opt, 50000)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// BenchmarkE9DynamicCreation measures execution-measure computation over a
// dynamic ledger (creation + destruction on every path).
func BenchmarkE9DynamicCreation(b *testing.B) {
	x, _ := ledger.Host("m", 2, ledger.Direct)
	order := []psioa.Action{
		"sample_0_m", "sample_1_m",
		ledger.Sealed("m", 0, 0), ledger.Sealed("m", 0, 1),
		ledger.Sealed("m", 1, 0), ledger.Sealed("m", 1, 1),
		ledger.Open("m"),
	}
	s := &sched.Priority{A: x, Bound: 12, LocalOnly: true, Order: order}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		em, err := sched.Measure(x, s, 20)
		if err != nil || em.Len() == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10ExecMeasure measures exact ε_σ computation on a branching
// random walk (depth 12).
func BenchmarkE10ExecMeasure(b *testing.B) {
	w := testaut.RandomWalk("w", 8, 0.5)
	s := &sched.Greedy{A: w, Bound: 12, LocalOnly: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Measure(w, s, 14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Sampling measures the Monte-Carlo alternative at the same
// depth (per sampled execution).
func BenchmarkE10Sampling(b *testing.B) {
	w := testaut.RandomWalk("w", 8, 0.5)
	s := &sched.Greedy{A: w, Bound: 12, LocalOnly: true}
	stream := rng.New(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Sample(w, s, stream, 14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11DynamicEmulation measures the full dynamic-host secure
// emulation check (one run-time-created session).
func BenchmarkE11DynamicEmulation(b *testing.B) {
	real := dynchannel.Host("d", 1, dynchannel.RealKind)
	ideal := dynchannel.Host("d", 1, dynchannel.IdealKind)
	cases := []core.AdvSim{{Adv: dynchannel.Adversary("d", 1), Sim: dynchannel.Simulator("d", 1)}}
	opt := core.Options{
		Envs: []psioa.PSIOA{dynchannel.Env("d", []int{0}), dynchannel.Env("d", []int{1})},
		Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
			{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess", "deliver"},
			{"open", "send", "encrypt", "tap", "notify", "deliver"},
		}},
		Insight: insight.Trace(), Eps: 0, Q1: 10, Q2: 10,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.SecureEmulates(real, ideal, cases, opt, 20000)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// BenchmarkE12Commitment measures the stateful-simulator emulation check on
// the bit-commitment protocol.
func BenchmarkE12Commitment(b *testing.B) {
	opt := core.Options{
		Envs: []psioa.PSIOA{commitment.Env("x", 0), commitment.Env("x", 1)},
		Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
			{"commit", "blind", "tapc", "committed", "fabc", "seec", "open_x", "tapp", "opened", "fabp", "seep", "reveal"},
		}},
		Insight: insight.Trace(), Eps: 0, Q1: 12, Q2: 12,
	}
	cases := []core.AdvSim{{Adv: commitment.Observer("x"), Sim: commitment.Sim("x")}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.SecureEmulates(commitment.Real("x"), commitment.Ideal("x"), cases, opt, 50000)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// BenchmarkE13CreationMonotonicity measures the end-to-end monotonicity
// check (child relation + obliviousness + host relation).
func BenchmarkE13CreationMonotonicity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E13CreationMonotonicity()
		if err != nil || tbl == nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14CoinFlipping measures the passive XOR coin-flipping emulation
// check (the largest composed real system in the suite: 3 automata + 2
// relays).
func BenchmarkE14CoinFlipping(b *testing.B) {
	opt := core.Options{
		Envs: []psioa.PSIOA{coinflip.Env("x")},
		Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
			{"pick", "share", "see", "toss", "announce", "fabshare", "result"},
		}},
		Insight: insight.Trace(), Eps: 0, Q1: 12, Q2: 12,
	}
	cases := []core.AdvSim{{Adv: coinflip.PassiveAdv("x", 2), Sim: coinflip.PassiveSim("x")}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.SecureEmulates(coinflip.Real("x", 2), coinflip.Ideal("x"), cases, opt, 50000)
		if err != nil || !rep.Holds {
			b.Fatalf("%v %v", rep, err)
		}
	}
}

// Micro-benchmarks of the framework kernels.

// BenchmarkComposeSig measures composed-signature evaluation (cold cache).
func BenchmarkComposeSig(b *testing.B) {
	auts := make([]psioa.PSIOA, 8)
	for i := range auts {
		auts[i] = testaut.Coin(fmt.Sprintf("c%d", i), 0.5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := psioa.MustCompose(auts...)
		p.Sig(p.Start())
	}
}

// BenchmarkProductTrans measures a product transition with 8 participants
// (warm caches).
func BenchmarkProductTrans(b *testing.B) {
	auts := make([]psioa.PSIOA, 8)
	for i := range auts {
		auts[i] = testaut.Coin(fmt.Sprintf("c%d", i), 0.5)
	}
	p := psioa.MustCompose(auts...)
	q := p.Start()
	p.Trans(q, "flip_c3")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Trans(q, "flip_c3")
	}
}

// BenchmarkExplore measures reachability analysis of a composed system.
func BenchmarkExplore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
		if _, err := psioa.Explore(w, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreNestedWorld measures reachability analysis of a fresh
// dynamic-channel world env‖hide(host‖adv) at two sessions per iteration:
// the world shape whose schema enumeration dominates E11 and the
// emulate-sessions workload. Its hidden component is itself a product.
func BenchmarkExploreNestedWorld(b *testing.B) {
	aact, err := structured.AActUniverse(dynchannel.Host("d", 2, dynchannel.RealKind), 20000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		host := dynchannel.Host("d", 2, dynchannel.RealKind)
		left := psioa.HideSet(psioa.MustCompose(host, dynchannel.Adversary("d", 2)), aact)
		w := psioa.MustCompose(dynchannel.Env("d", []int{0, 1}), left)
		if _, err := psioa.Explore(w, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureDeep measures a deep, nearly-linear scheduler-tree
// expansion (Counter chain, execution depth 257): the regime where
// per-step fragment copying would be quadratic in the depth.
func BenchmarkMeasureDeep(b *testing.B) {
	c := testaut.Counter("c", 256)
	acts := make([]psioa.Action, 0, 257)
	for i := 0; i < 256; i++ {
		acts = append(acts, "tick")
	}
	acts = append(acts, "done_c")
	s := &sched.Sequence{A: c, Acts: acts}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		em, err := sched.Measure(c, s, 260)
		if err != nil || em.MaxLen() != 257 {
			b.Fatalf("%v maxlen=%d", err, em.MaxLen())
		}
	}
}

// BenchmarkMeasureSmallCalls measures the small-call regime of the
// Implements checks (E4's world): every oblivious schedule of length ≤ 3
// on a coin flipper and its environment, each measured once. Most trees
// here have one or two executions, so what a call costs before its first
// step dominates.
func BenchmarkMeasureSmallCalls(b *testing.B) {
	w := psioa.MustCompose(coin.Env("x"), coin.Flipper("x", 0.625))
	ss, err := (&sched.ObliviousSchema{}).Enumerate(w, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range ss {
			if _, err := sched.MeasureOpts(context.Background(), w, s, 3, nil, sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMeasureDeepBranching measures ε_σ expansion of a reflecting
// random walk whose tree is both deep and wide.
func BenchmarkMeasureDeepBranching(b *testing.B) {
	w := testaut.RandomWalk("w", 10, 0.5)
	s := &sched.Greedy{A: w, Bound: 16, LocalOnly: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Measure(w, s, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureSortedView measures building the key-ordered view of an
// execution measure: Len() right after the expansion of a 16-step walk
// (the measure-kernels workload's largest shape), whose 2^16 halted
// executions are ordered by one walk over the expansion tree. The
// expansion itself runs outside the timer.
func BenchmarkMeasureSortedView(b *testing.B) {
	w := testaut.RandomWalk("w", 12, 0.5)
	s := &sched.Greedy{A: w, Bound: 16, LocalOnly: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		em, err := sched.MeasureOpts(context.Background(), w, s, 18, nil, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if em.Len() == 0 {
			b.Fatal("empty support")
		}
	}
}

// BenchmarkFDistTraceWalk measures an exact trace f-dist the way the
// measure-kernels workload's trace jobs compute it: a 16-step greedy walk
// on 13 positions, expanded and imaged through a fresh engine cache per op.
func BenchmarkFDistTraceWalk(b *testing.B) {
	w := psioa.MustCompose(testaut.RandomWalk("w", 12, 0.5))
	s := &sched.Greedy{A: w, Bound: 16, LocalOnly: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := engine.NewCache(0).FDistOpts(context.Background(), w, s, insight.Trace(), 80, nil, sched.Options{})
		if err != nil || d.Len() == 0 {
			b.Fatalf("%v support=%d", err, d.Len())
		}
	}
}

// BenchmarkSampleImageMany measures Monte-Carlo image estimation: 1000
// depth-64 walks per iteration, the SampleImage hot path.
func BenchmarkSampleImageMany(b *testing.B) {
	w := testaut.RandomWalk("w", 32, 0.5)
	s := &sched.Greedy{A: w, Bound: 64, LocalOnly: true}
	stream := rng.New(7)
	traceOf := func(f *psioa.Frag) string { return f.TraceKey(w) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.SampleImage(w, s, stream, 66, 1000, traceOf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragExtendKey measures building a depth-512 fragment one step at
// a time, keying every prefix (the Measure inner loop's fragment work).
func BenchmarkFragExtendKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := psioa.NewFrag("q0")
		for j := 0; j < 512; j++ {
			f = f.Extend("a", psioa.State(fmt.Sprintf("q%d", j+1)))
			_ = f.Key()
		}
	}
}

// BenchmarkFragIsPrefixOf measures the prefix check between a depth-256
// fragment and its depth-512 extension.
func BenchmarkFragIsPrefixOf(b *testing.B) {
	f := psioa.NewFrag("q0")
	var half *psioa.Frag
	for j := 0; j < 512; j++ {
		f = f.Extend("a", psioa.State(fmt.Sprintf("q%d", j+1)))
		if j == 255 {
			half = f
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !half.IsPrefixOf(f) {
			b.Fatal("prefix check failed")
		}
	}
}

// BenchmarkConeLookup measures cone-mass queries against a branching
// execution measure (one query per prefix depth).
func BenchmarkConeLookup(b *testing.B) {
	w := testaut.RandomWalk("w", 8, 0.5)
	s := &sched.Greedy{A: w, Bound: 12, LocalOnly: true}
	em, err := sched.Measure(w, s, 14)
	if err != nil {
		b.Fatal(err)
	}
	alpha := psioa.NewFrag(w.Start()).Extend("step_w", "x1").Extend("step_w", "x2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if em.Cone(alpha) <= 0 {
			b.Fatal("cone mass vanished")
		}
	}
}

// BenchmarkExploreWarm measures repeated reachability analysis of one
// composed system (warm signature/transition caches), the pattern of
// Validate + an oblivious schema's alphabet walk + fingerprinting over a
// shared automaton.
func BenchmarkExploreWarm(b *testing.B) {
	w := psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
	if _, err := psioa.Explore(w, 100000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := psioa.Explore(w, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate measures Validate on a freshly composed world: an
// exploration followed by building every transition measure, the pattern
// that engine fingerprinting shares.
func BenchmarkValidate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
		if err := psioa.Validate(w, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistSample measures repeated draws from one 64-point
// distribution (the transition-sampling inner loop of Sample).
func BenchmarkDistSample(b *testing.B) {
	m := make(map[string]float64, 64)
	for i := 0; i < 64; i++ {
		m[fmt.Sprintf("x%02d", i)] = 1.0 / 64
	}
	d := measure.MustFromMap(m)
	stream := rng.New(11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Sample(stream.Float64()); !ok {
			b.Fatal("probability measure failed to sample")
		}
	}
}

// BenchmarkBalancedSup measures the Def 3.6 distance on 1k-point supports.
func BenchmarkBalancedSup(b *testing.B) {
	x := make(map[string]float64, 1000)
	y := make(map[string]float64, 1000)
	for i := 0; i < 1000; i++ {
		x[fmt.Sprint(i)] = 1.0 / 1000
		y[fmt.Sprint((i+1)%1000)] = 1.0 / 1000
	}
	dx := measure.MustFromMap(x)
	dy := measure.MustFromMap(y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dse.BalancedSup(dx, dy)
	}
}

// BenchmarkMeasureParallel measures the sharded frontier expansion against
// the deep/wide random-walk tree at several worker counts; the workers=1
// case expands every level inline, so the sub-benchmark family is the
// scaling curve against one worker (see make bench-par).
func BenchmarkMeasureParallel(b *testing.B) {
	w := testaut.RandomWalk("w", 10, 0.5)
	s := &sched.Random{A: w, Bound: 14}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.MeasureOpts(context.Background(), w, s, 16, nil,
					sched.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureDAGConverging measures the state-collapsed DAG kernel
// against the tree kernel on a converging automaton at the same bound: the
// tree expands ~2^14 executions while the DAG propagates |states|×depth
// nodes.
func BenchmarkMeasureDAGConverging(b *testing.B) {
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Random{A: w, Bound: 14}
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.Measure(w, s, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dag", func(b *testing.B) {
		dob, ok := sched.AsDepthOblivious(s)
		if !ok {
			b.Fatal("Random must be depth-oblivious")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.MeasureDAGOpts(context.Background(), w, dob, 16, nil, sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSampleImageParallel measures the substream Monte-Carlo sampler
// at several worker counts (the sampled distribution is identical at all of
// them).
func BenchmarkSampleImageParallel(b *testing.B) {
	w := testaut.RandomWalk("w", 32, 0.5)
	s := &sched.Greedy{A: w, Bound: 64, LocalOnly: true}
	traceOf := func(f *psioa.Frag) string { return f.TraceKey(w) }
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			stream := rng.New(7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.SampleImageOpts(context.Background(), w, s, stream, 66, 1000,
					traceOf, nil, sched.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
