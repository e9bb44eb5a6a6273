// Package experiments implements the reproduction experiment suite
// E1–E18, E20, E22 (see DESIGN.md §4 and EXPERIMENTS.md). The paper is a
// brief announcement with no empirical section, so each experiment
// validates one of its lemmas/theorems on calibrated instances and reports
// the measured quantities as a table. The cmd/dsebench tool prints all
// tables; the root benchmark suite exercises the same kernels under
// testing.B.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/obs"
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

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (E1..E18, E20, E22).
	ID string `json:"id"`
	// Title states the claim under test with its paper reference.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows are the measurements.
	Rows [][]string `json:"rows"`
	// Verdict summarises whether the paper's claim held.
	Verdict string `json:"verdict"`
	// Workers is the worker count the experiment's kernels ran with
	// (0 means the default sequential path and reports as 1).
	Workers int `json:"workers,omitempty"`
	// Kernel names the measure kernel exercised: "tree" (exact expansion
	// on one worker), "parallel" (sharded frontier expansion) or "dag"
	// (state-collapsed forward propagation). Empty reports as "tree".
	Kernel string `json:"kernel,omitempty"`
	// Cluster names the verification-cluster topology the experiment ran
	// on (e.g. "in-process-3"); empty means a single local runner.
	Cluster string `json:"cluster,omitempty"`
	// Elapsed is the wall-clock runtime, filled in by Instrumented.
	Elapsed time.Duration `json:"-"`
}

// Pass reports whether the verdict is a PASS.
func (t *Table) Pass() bool { return !strings.HasPrefix(t.Verdict, "FAIL") }

// Result is the machine-readable form of a table, one JSON object per
// benchmark, emitted by dsebench -json so the perf trajectory can be
// tracked across revisions.
type Result struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Verdict   string     `json:"verdict"`
	Pass      bool       `json:"pass"`
	ElapsedUS int64      `json:"elapsed_us"`
	Workers   int        `json:"workers"`
	Kernel    string     `json:"kernel"`
	Cluster   string     `json:"cluster,omitempty"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
}

// Result converts the table, defaulting the kernel provenance fields so
// every benchmark object records how it was computed.
func (t *Table) Result() Result {
	workers := t.Workers
	if workers <= 0 {
		workers = 1
	}
	kernel := t.Kernel
	if kernel == "" {
		kernel = "tree"
	}
	return Result{
		ID:        t.ID,
		Title:     t.Title,
		Verdict:   t.Verdict,
		Pass:      t.Pass(),
		ElapsedUS: t.Elapsed.Microseconds(),
		Workers:   workers,
		Kernel:    kernel,
		Cluster:   t.Cluster,
		Header:    t.Header,
		Rows:      t.Rows,
	}
}

// Instrumented wraps an experiment runner with observability: one
// experiment-layer Call, whose one clock read pair feeds the trace span,
// the experiment.us histogram and the table's Elapsed field, and a trace
// event carrying the verdict.
func Instrumented(id string, run func() (*Table, error)) func() (*Table, error) {
	return func() (t *Table, err error) {
		c := obs.Enter(context.Background(), obs.LayerExperiment, id)
		defer func() {
			elapsed := c.End()
			if err != nil || t == nil {
				return
			}
			t.Elapsed = elapsed
			if tr := obs.Active(); tr.Enabled() {
				tr.Emit(obs.Event{Kind: obs.KindExperiment, Name: id, Attr: t.Verdict, Dur: elapsed.Microseconds()})
			}
		}()
		return run()
	}
}

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintf(&b, "  verdict: %s\n", t.Verdict)
	return b.String()
}

func f6(v float64) string { return fmt.Sprintf("%.6g", v) }

// advDist is the largest distance any adversary of rep reached.
func advDist(rep *core.EmulationReport) float64 {
	dist := 0.0
	for _, r := range rep.PerAdv {
		if r.MaxDist > dist {
			dist = r.MaxDist
		}
	}
	return dist
}

// E1CompositionBound measures Lemma 4.3/B.1: B(A₁‖A₂) ≤ c·(B₁+B₂) across a
// size sweep of explicit automata.
func E1CompositionBound() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "composition of bounded PSIOA is bounded (Lemma 4.3/B.1)",
		Header: []string{"n1", "n2", "B1(bits)", "B2(bits)", "B12(bits)", "c=B12/(B1+B2)"},
	}
	worst := 0.0
	for _, n := range []int{2, 4, 8, 16, 32} {
		a1 := testaut.Counter("a1", n)
		a2 := testaut.Counter("a2", 2*n)
		r, err := bounded.CompositionBound(a1, a2, 100000)
		if err != nil {
			return nil, err
		}
		if r.C > worst {
			worst = r.C
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(2 * n),
			fmt.Sprint(r.B1), fmt.Sprint(r.B2), fmt.Sprint(r.B12), f6(r.C),
		})
	}
	t.Verdict = verdict(worst <= 3, fmt.Sprintf("linear bound with empirical c_comp = %s (paper: some universal constant)", f6(worst)))
	return t, nil
}

// E2PCACompositionBound measures Lemma B.2 on dynamic ledger hosts.
func E2PCACompositionBound() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "composition of bounded PCA is bounded (Lemma B.2)",
		Header: []string{"subchains", "B1(bits)", "B2(bits)", "B12(bits)", "c"},
	}
	worst := 0.0
	for _, n := range []int{1, 2, 3} {
		x1, _ := ledger.Host("a", n, ledger.Direct)
		x2, _ := ledger.Host("b", n, ledger.Parity)
		d1, err := bounded.Describe(x1, 100000)
		if err != nil {
			return nil, err
		}
		d2, err := bounded.Describe(x2, 100000)
		if err != nil {
			return nil, err
		}
		comp, err := pca.ComposePCA(x1, x2)
		if err != nil {
			return nil, err
		}
		d12, err := bounded.Describe(comp, 100000)
		if err != nil {
			return nil, err
		}
		c := float64(d12.B()) / float64(d1.B()+d2.B())
		if c > worst {
			worst = c
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(d1.B()), fmt.Sprint(d2.B()), fmt.Sprint(d12.B()), f6(c),
		})
	}
	t.Verdict = verdict(worst <= 3, fmt.Sprintf("linear bound with empirical c'_comp = %s", f6(worst)))
	return t, nil
}

// E3HidingBound measures Lemma 4.5/B.3 on growing hidden sets.
func E3HidingBound() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "hiding of bounded automata is bounded (Lemma 4.5/B.3)",
		Header: []string{"n", "|S|", "B(A)", "B(S)(bits)", "B(hide)", "c"},
	}
	worst := 0.0
	for _, n := range []int{4, 8, 16} {
		a := testaut.Counter("a", n)
		for _, hiddenCount := range []int{1, 2} {
			s := psioa.NewActionSet()
			s.Add(psioa.Action("done_a"))
			if hiddenCount > 1 {
				s.Add("tick") // inputs are unaffected by hiding but size the recogniser
			}
			r, err := bounded.HidingBound(a, s, 100000)
			if err != nil {
				return nil, err
			}
			if r.C > worst {
				worst = r.C
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(len(s)),
				fmt.Sprint(r.B1), fmt.Sprint(r.B2), fmt.Sprint(r.B12), f6(r.C),
			})
		}
	}
	t.Verdict = verdict(worst <= 1, fmt.Sprintf("empirical c_hide = %s (hiding never grows the description)", f6(worst)))
	return t, nil
}

func coinOpts(eps float64, q int) core.Options {
	return core.Options{
		Envs:    []psioa.PSIOA{coin.Env("x")},
		Schema:  &sched.ObliviousSchema{},
		Insight: insight.Trace(),
		Eps:     eps,
		Q1:      q, Q2: q,
	}
}

// E4Transitivity measures Theorem 4.16: ε₁₃ = ε₁₂ + ε₂₃ on calibrated coin
// chains.
func E4Transitivity() (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "implementation transitivity, ε13 = ε12+ε23 (Theorem 4.16/B.4)",
		Header: []string{"δ", "ε12", "ε23", "measured ε13", "ε12+ε23", "tight?"},
	}
	ok := true
	for _, delta := range []float64{0.25, 0.125, 0.0625, 0.03125} {
		a1 := coin.Flipper("x", 0.5+2*delta)
		a2 := coin.Flipper("x", 0.5+delta)
		a3 := coin.Fair("x")
		r12, err := core.ImplementsWitness(a1, a2, core.IdentityWitness(), coinOpts(delta, 3))
		if err != nil {
			return nil, err
		}
		r23, err := core.ImplementsWitness(a2, a3, core.IdentityWitness(), coinOpts(delta, 3))
		if err != nil {
			return nil, err
		}
		w13 := core.ComposeWitnesses(a2, core.IdentityWitness(), core.IdentityWitness())
		r13, err := core.ImplementsWitness(a1, a3, w13, coinOpts(2*delta, 3))
		if err != nil {
			return nil, err
		}
		tight := r12.Holds && r23.Holds && r13.Holds &&
			abs(r13.MaxDist-(r12.MaxDist+r23.MaxDist)) < 1e-9
		ok = ok && tight
		t.Rows = append(t.Rows, []string{
			f6(delta), f6(r12.MaxDist), f6(r23.MaxDist), f6(r13.MaxDist),
			f6(r12.MaxDist + r23.MaxDist), fmt.Sprint(tight),
		})
	}
	t.Verdict = verdict(ok, "triangle equality exact on the calibrated chain")
	return t, nil
}

// E5Composability measures Lemma 4.13: the context A₃ neither helps nor
// hurts the distinguisher.
func E5Composability() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "composability of approximate implementation (Lemma 4.13)",
		Header: []string{"δ", "premise dist (A1≤A2 vs E||A3)", "conclusion dist (A3||A1≤A3||A2 vs E)", "equal?"},
	}
	schema := &sched.PrefixPrioritySchema{Templates: [][]string{
		{"flip_x", "result"}, {"result", "flip_x"},
	}}
	ok := true
	for _, delta := range []float64{0.25, 0.125, 0.0625} {
		a1 := coin.Flipper("x", 0.5+delta)
		a2 := coin.Fair("x")
		a3 := coin.Fair("y")
		env := coin.Env("x")
		premise, err := core.Implements(a1, a2, core.Options{
			Envs: []psioa.PSIOA{psioa.MustCompose(env, a3)}, Schema: schema,
			Insight: insight.Trace(), Eps: delta, Q1: 4, Q2: 4,
		})
		if err != nil {
			return nil, err
		}
		left, right, err := core.ComposeContext(a3, a1, a2)
		if err != nil {
			return nil, err
		}
		conclusion, err := core.Implements(left, right, core.Options{
			Envs: []psioa.PSIOA{env}, Schema: schema,
			Insight: insight.Trace(), Eps: delta, Q1: 4, Q2: 4,
		})
		if err != nil {
			return nil, err
		}
		eq := premise.Holds && conclusion.Holds && abs(premise.MaxDist-conclusion.MaxDist) < 1e-9
		ok = ok && eq
		t.Rows = append(t.Rows, []string{f6(delta), f6(premise.MaxDist), f6(conclusion.MaxDist), fmt.Sprint(eq)})
	}
	t.Verdict = verdict(ok, "context preserves the distance exactly (flattened composition)")
	return t, nil
}

// E6FamilyNegPt measures Lemma 4.14/Theorem 4.15 material: the leaky coin
// family is ≤_{neg,pt} the fair family with ε(k)=2^-k, also under context.
func E6FamilyNegPt() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "family implementation and ≤_{neg,pt} (Lemma 4.14 / Theorem 4.15)",
		Header: []string{"k", "ε(k)=2^-k", "measured dist", "with context A3", "≤ 2^-k?"},
	}
	fam := coin.Family("x")
	fair := coin.FairFamily("x")
	ctx := bounded.Family(func(k int) psioa.PSIOA { return coin.Fair("y") })
	cfam := core.ContextFamily(ctx, fam)
	cfair := core.ContextFamily(ctx, fair)
	schema := &sched.PrefixPrioritySchema{Templates: [][]string{{"flip_x", "result"}}}
	ok := true
	for k := 1; k <= 8; k++ {
		eps := bounded.Negl(2)(k)
		rep, err := core.Implements(fam(k), fair(k), coinOpts(eps, 3))
		if err != nil {
			return nil, err
		}
		crep, err := core.Implements(cfam(k), cfair(k), core.Options{
			Envs: []psioa.PSIOA{coin.Env("x")}, Schema: schema,
			Insight: insight.Trace(), Eps: eps, Q1: 4, Q2: 4,
		})
		if err != nil {
			return nil, err
		}
		pass := rep.Holds && crep.Holds && rep.MaxDist <= eps+1e-12
		ok = ok && pass
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), f6(eps), f6(rep.MaxDist), f6(crep.MaxDist), fmt.Sprint(pass),
		})
	}
	t.Verdict = verdict(ok, "negligible error curve matched exactly, preserved by composition")
	return t, nil
}

// E7DummyInsertion measures Lemma 4.29/D.1: ε = 0 balance between the
// direct and dummy-mediated worlds, with the 2× scheduler-bound overhead.
func E7DummyInsertion() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "dummy adversary insertion (Lemma 4.29/D.1)",
		Header: []string{"scheduler", "f-dist distance", "len(W1 exec)", "len(W2 exec)", "ratio ≤ 2?"},
	}
	env := channel.Env("x", 1)
	a := channel.Real("x")
	adv := psioa.RenameMap(channel.Eavesdropper("x"), channel.G("x"))
	ctx, err := adversary.NewForwardCtx(env, a, adv, channel.G("x"), 10000)
	if err != nil {
		return nil, err
	}
	mk := func(name string, order ...psioa.Action) sched.Scheduler {
		p := &sched.Priority{A: ctx.W1, Order: order, Bound: 8, LocalOnly: true}
		return &sched.FuncSched{ID: name, Fn: p.Choose}
	}
	cases := []struct {
		name string
		s    sched.Scheduler
	}{
		{"observe-then-deliver", mk("otd", "send", "encrypt", "g_tap", "guess", "deliver")},
		{"deliver-only", mk("d", "send", "encrypt", "deliver")},
		{"block-early", mk("be", "send", "encrypt", "g_tap", "g_block", "deliver")},
		{"uniform-random", &sched.Random{A: ctx.W1, Bound: 6, LocalOnly: true}},
	}
	ok := true
	for _, cse := range cases {
		s2 := ctx.ForwardSched(cse.s)
		d1, err := insight.FDist(ctx.W1, cse.s, insight.Trace(), 30)
		if err != nil {
			return nil, err
		}
		d2, err := insight.FDist(ctx.W2, s2, insight.Trace(), 30)
		if err != nil {
			return nil, err
		}
		dist := insight.Distance(d1, d2)
		em1, err := sched.Measure(ctx.W1, cse.s, 30)
		if err != nil {
			return nil, err
		}
		em2, err := sched.Measure(ctx.W2, s2, 30)
		if err != nil {
			return nil, err
		}
		ratioOK := em2.MaxLen() <= 2*em1.MaxLen()
		pass := dist < 1e-9 && ratioOK
		ok = ok && pass
		t.Rows = append(t.Rows, []string{
			cse.name, f6(dist), fmt.Sprint(em1.MaxLen()), fmt.Sprint(em2.MaxLen()), fmt.Sprint(ratioOK),
		})
	}
	t.Verdict = verdict(ok, "perfect (ε=0) balance; forwarded schedulers within the 2·q1 bound")
	return t, nil
}

// E8SecureEmulation measures Def 4.26 and Theorem 4.30: the OTP channel
// securely emulates the ideal channel (exactly), the leak sweep calibrates
// the emulation error, and the composed simulator construction works.
func E8SecureEmulation() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "dynamic secure emulation and its composability (Def 4.26, Theorem 4.30)",
		Header: []string{"system", "leak", "ε needed", "measured dist", "holds"},
	}
	schema := &sched.PrefixPrioritySchema{Templates: [][]string{
		{"send", "encrypt", "tap", "notify", "fabricate", "g_tap", "guess", "deliver"},
		{"send", "encrypt", "tap", "notify", "fabricate", "g_tap", "g_block", "block", "guess", "deliver"},
		{"send", "encrypt", "tap", "notify", "deliver"},
	}}
	single := func(leak float64) (*core.EmulationReport, error) {
		return core.SecureEmulates(
			channel.LeakyReal("x", leak), channel.Ideal("x"),
			[]core.AdvSim{{Adv: channel.Eavesdropper("x"), Sim: channel.SimFor("x")}},
			core.Options{
				Envs:    []psioa.PSIOA{channel.Env("x", 0), channel.Env("x", 1)},
				Schema:  schema,
				Insight: insight.Trace(),
				Eps:     leak / 2,
				Q1:      8, Q2: 8,
			}, 50000)
	}
	ok := true
	for _, leak := range []float64{0, 0.125, 0.25, 0.5} {
		rep, err := single(leak)
		if err != nil {
			return nil, err
		}
		dist := advDist(rep)
		ok = ok && rep.Holds
		t.Rows = append(t.Rows, []string{
			"OTP(single)", f6(leak), f6(leak / 2), f6(dist), fmt.Sprint(rep.Holds),
		})
	}
	// Theorem 4.30: composed instances with the constructed simulator.
	realHat := structured.MustCompose(channel.Real("a"), channel.Real("b"))
	idealHat := structured.MustCompose(channel.Ideal("a"), channel.Ideal("b"))
	g := channel.G("a")
	for k, v := range channel.G("b") {
		g[k] = v
	}
	adv := psioa.MustCompose(channel.Eavesdropper("a"), channel.Eavesdropper("b"))
	sim, err := core.ComposedSimulator(g, []psioa.PSIOA{channel.DummySim("a"), channel.DummySim("b")}, adv)
	if err != nil {
		return nil, err
	}
	var envs []psioa.PSIOA
	for m1 := 0; m1 < 2; m1++ {
		for m2 := 0; m2 < 2; m2++ {
			envs = append(envs, psioa.MustCompose(channel.Env("a", m1), channel.Env("b", m2)))
		}
	}
	rep, err := core.SecureEmulates(realHat, idealHat,
		[]core.AdvSim{{Adv: adv, Sim: sim}},
		core.Options{Envs: envs, Schema: schema, Insight: insight.Trace(), Eps: 0, Q1: 16, Q2: 16},
		10000)
	if err != nil {
		return nil, err
	}
	dist := advDist(rep)
	ok = ok && rep.Holds
	t.Rows = append(t.Rows, []string{"OTP×2 composed (Thm 4.30 Sim)", "0", "0", f6(dist), fmt.Sprint(rep.Holds)})
	t.Verdict = verdict(ok, "emulation error = leak/2 exactly; composed simulator achieves ε=0")
	return t, nil
}

// E9DynamicCreation measures the §4.4 creation-obliviousness scenario on
// the ledger hosts.
func E9DynamicCreation() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "dynamic creation and creation-oblivious scheduling (§4.4)",
		Header: []string{"subchains", "reachable configs (direct)", "reachable (parity)", "perception distance", "oblivious factoring"},
	}
	ok := true
	for _, n := range []int{1, 2} {
		xd, _ := ledger.Host("m", n, ledger.Direct)
		xp, _ := ledger.Host("m", n, ledger.Parity)
		exd, err := psioa.Explore(xd, 100000)
		if err != nil {
			return nil, err
		}
		exp, err := psioa.Explore(xp, 100000)
		if err != nil {
			return nil, err
		}
		var order []psioa.Action
		for i := 0; i < n; i++ {
			order = append(order,
				psioa.Action(fmt.Sprintf("sample_%d_m", i)),
				psioa.Action(fmt.Sprintf("sample_%d_m2", i)),
				ledger.Sealed("m", i, 0), ledger.Sealed("m", i, 1))
		}
		order = append(order, ledger.Open("m"))
		sd := &sched.Priority{A: xd, Bound: 6 * n, LocalOnly: true, Order: order}
		sp := &sched.Priority{A: xp, Bound: 6 * n, LocalOnly: true, Order: order}
		dd, err := insight.FDist(xd, sd, insight.Trace(), 8*n)
		if err != nil {
			return nil, err
		}
		dp, err := insight.FDist(xp, sp, insight.Trace(), 8*n)
		if err != nil {
			return nil, err
		}
		dist := insight.Distance(dd, dp)
		seq := &sched.Sequence{A: xd, LocalOnly: true, Acts: []psioa.Action{ledger.Open("m"), "sample_0_m"}}
		factErr := sched.FactorsThrough(xd, seq, ledger.MaskView(xd, "m"), 8*n)
		pass := dist < 1e-9 && factErr == nil
		ok = ok && pass
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(exd.States)), fmt.Sprint(len(exp.States)),
			f6(dist), fmt.Sprint(factErr == nil),
		})
	}
	t.Verdict = verdict(ok, "trace-equivalent dynamic children keep the hosts indistinguishable")
	return t, nil
}

// E10Scaling measures the exact execution-measure computation cost against
// scheduler depth and system width.
func E10Scaling() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "exact execution-measure computation: support and cost scaling",
		Header: []string{"walk length", "bound", "support size", "time"},
	}
	for _, n := range []int{4, 8, 12} {
		for _, bnd := range []int{8, 12, 16} {
			w := testaut.RandomWalk("w", n, 0.5)
			s := &sched.Greedy{A: w, Bound: bnd, LocalOnly: true}
			start := time.Now()
			em, err := sched.Measure(w, s, bnd+2)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(bnd), fmt.Sprint(em.Len()), elapsed.Round(time.Microsecond).String(),
			})
		}
	}
	t.Verdict = "PASS — support grows with branching × depth; exact computation feasible for protocol-scale systems"
	return t, nil
}

// E11DynamicEmulation measures the scenario the paper's introduction
// motivates and no prior framework expresses: a *dynamic* host creating
// secure-channel sessions at run time, where the real host (creating OTP
// sessions) securely emulates the ideal host (creating ideal-functionality
// sessions) with the session simulators composed.
func E11DynamicEmulation() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "dynamic secure emulation of run-time-created sessions (paper's motivating scenario)",
		Header: []string{"sessions", "reachable real configs", "reachable ideal configs", "measured dist", "holds"},
	}
	schema := &sched.PrefixPrioritySchema{Templates: [][]string{
		{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess", "deliver"},
		{"open", "send", "encrypt", "tap", "notify", "fabricate", "guess"},
		{"open", "send", "encrypt", "tap", "notify", "deliver"},
	}}
	ok := true
	for _, n := range []int{1, 2} {
		real := dynchannel.Host("d", n, dynchannel.RealKind)
		ideal := dynchannel.Host("d", n, dynchannel.IdealKind)
		exr, err := psioa.Explore(real, 100000)
		if err != nil {
			return nil, err
		}
		exi, err := psioa.Explore(ideal, 100000)
		if err != nil {
			return nil, err
		}
		var envs []psioa.PSIOA
		if n == 1 {
			envs = []psioa.PSIOA{dynchannel.Env("d", []int{0}), dynchannel.Env("d", []int{1})}
		} else {
			for m1 := 0; m1 < 2; m1++ {
				for m2 := 0; m2 < 2; m2++ {
					envs = append(envs, dynchannel.Env("d", []int{m1, m2}))
				}
			}
		}
		rep, err := core.SecureEmulates(real, ideal,
			[]core.AdvSim{{Adv: dynchannel.Adversary("d", n), Sim: dynchannel.Simulator("d", n)}},
			core.Options{
				Envs: envs, Schema: schema, Insight: insight.Trace(),
				Eps: 0, Q1: 10 * n, Q2: 10 * n,
			}, 20000)
		if err != nil {
			return nil, err
		}
		dist := advDist(rep)
		ok = ok && rep.Holds
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(exr.States)), fmt.Sprint(len(exi.States)),
			f6(dist), fmt.Sprint(rep.Holds),
		})
	}
	t.Verdict = verdict(ok, "run-time-created real sessions perfectly emulate run-time-created ideal sessions")
	return t, nil
}

// E12Commitment measures the stateful-simulator calibration: the
// perfectly-hiding commitment protocol emulates the ideal commitment
// functionality at ε = 0 with the consistency-keeping simulator, while the
// forgetful simulator (independent pad at open) fails at exactly 1/2.
func E12Commitment() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "stateful simulator calibration on bit commitment (Def 4.26 negative control)",
		Header: []string{"simulator", "ε", "measured dist", "holds"},
	}
	opts := func(eps float64) core.Options {
		return core.Options{
			Envs: []psioa.PSIOA{commitment.Env("x", 0), commitment.Env("x", 1)},
			Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
				{"commit", "blind", "tapc", "committed", "fabc", "seec", "open_x", "tapp", "opened", "fabp", "seep", "reveal"},
				{"commit", "blind", "tapc", "committed", "fabc", "seec", "open_x"},
				{"commit", "blind", "tapc", "committed", "fabc", "seec"},
			}},
			Insight: insight.Trace(),
			Eps:     eps,
			Q1:      12, Q2: 12,
		}
	}
	run := func(sim psioa.PSIOA, eps float64) (float64, bool, error) {
		rep, err := core.SecureEmulates(commitment.Real("x"), commitment.Ideal("x"),
			[]core.AdvSim{{Adv: commitment.Observer("x"), Sim: sim}}, opts(eps), 50000)
		if err != nil {
			return 0, false, err
		}
		dist := advDist(rep)
		return dist, rep.Holds, nil
	}
	ok := true
	dist, holds, err := run(commitment.Sim("x"), 0)
	if err != nil {
		return nil, err
	}
	ok = ok && holds && dist < 1e-9
	t.Rows = append(t.Rows, []string{"consistent (correct)", "0", f6(dist), fmt.Sprint(holds)})
	dist, holds, err = run(commitment.ForgetfulSim("x"), 0)
	if err != nil {
		return nil, err
	}
	ok = ok && !holds && abs(dist-0.5) < 1e-9
	t.Rows = append(t.Rows, []string{"forgetful (wrong)", "0", f6(dist), fmt.Sprint(holds)})
	dist, holds, err = run(commitment.ForgetfulSim("x"), 0.5)
	if err != nil {
		return nil, err
	}
	ok = ok && holds
	t.Rows = append(t.Rows, []string{"forgetful (wrong)", "0.5", f6(dist), fmt.Sprint(holds)})
	t.Verdict = verdict(ok, "correct simulator exact at 0; wrong simulator fails by exactly the consistency defect 1/2")
	return t, nil
}

// E13CreationMonotonicity measures the §4.4 monotonicity scenario end to
// end: trace-equivalent children plus a creation-oblivious schema imply
// host indistinguishability.
func E13CreationMonotonicity() (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "monotonicity of implementation w.r.t. creation under creation-oblivious scheduling (§4.4/[7])",
		Header: []string{"level", "max distance", "holds"},
	}
	seqs := func(withOpen bool) sched.Schema {
		prefix := []psioa.Action{}
		if withOpen {
			prefix = append(prefix, ledger.Open("m"))
		}
		mk := func(tail ...psioa.Action) []psioa.Action { return append(append([]psioa.Action{}, prefix...), tail...) }
		all := [][]psioa.Action{
			mk("sample_0_m", "sample_0_m2", ledger.Sealed("m", 0, 0)),
			mk("sample_0_m", "sample_0_m2", ledger.Sealed("m", 0, 1)),
			mk("sample_0_m", "sample_0_m2"),
		}
		return &sched.FixedSchema{ID: "ledger-seqs", Default: func(a psioa.PSIOA, bound int) []sched.Scheduler {
			out := make([]sched.Scheduler, len(all))
			for i, s := range all {
				out[i] = &sched.Sequence{A: a, Acts: s, LocalOnly: true}
			}
			return out
		}}
	}
	childOpt := core.Options{
		Envs: []psioa.PSIOA{psioa.Null("nullenv")}, Schema: seqs(false),
		Insight: insight.Trace(), Eps: 0, Q1: 4, Q2: 4,
	}
	hostOpt := core.Options{
		Envs: []psioa.PSIOA{psioa.Null("nullenv")}, Schema: seqs(true),
		Insight: insight.Trace(), Eps: 0, Q1: 5, Q2: 5,
	}
	hostA, _ := ledger.Host("m", 1, ledger.Direct)
	hostB, _ := ledger.Host("m", 1, ledger.Parity)
	rep, err := core.CreationMonotonicity(
		ledger.Subchain("m", 0, ledger.Direct), ledger.Subchain("m", 0, ledger.Parity),
		hostA, hostB, []string{"host_m"}, childOpt, hostOpt)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"children (A ≤ B)", f6(rep.Child.MaxDist), fmt.Sprint(rep.Child.Holds)})
	t.Rows = append(t.Rows, []string{"hosts (X_A ≤ X_B)", f6(rep.Host.MaxDist), fmt.Sprint(rep.Host.Holds)})
	t.Verdict = verdict(rep.Holds(), "child implementation lifts to the dynamic hosts under the creation-oblivious schema")
	return t, nil
}

// E14CoinFlipping measures the XOR coin-flipping trilogy: secure against
// passive adversaries (ε = 0 w.r.t. the strong ideal coin), broken by a
// rushing adversary by exactly 1/2, and repaired by the weak (biasable)
// ideal functionality.
func E14CoinFlipping() (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "XOR coin flipping: passive security, rushing attack, weak-functionality repair",
		Header: []string{"scenario", "ideal", "measured dist", "holds"},
	}
	passive := core.Options{
		Envs: []psioa.PSIOA{coinflip.Env("x")},
		Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
			{"pick", "share", "see", "toss", "announce", "fabshare", "result"},
			{"pick", "share", "see", "toss", "announce", "fabshare"},
		}},
		Insight: insight.Trace(), Eps: 0, Q1: 12, Q2: 12,
	}
	rushing := core.Options{
		Envs: []psioa.PSIOA{coinflip.Env("x")},
		Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
			{"pick", "share", "bias1", "toss", "announce", "result"},
		}},
		Insight: insight.Trace(), Eps: 0, Q1: 10, Q2: 10,
	}
	run := func(label, ideal string, real, idl structured.SPSIOA, adv, sim psioa.PSIOA, opt core.Options) (float64, bool, error) {
		rep, err := core.SecureEmulates(real, idl, []core.AdvSim{{Adv: adv, Sim: sim}}, opt, 50000)
		if err != nil {
			return 0, false, err
		}
		dist := advDist(rep)
		t.Rows = append(t.Rows, []string{label, ideal, f6(dist), fmt.Sprint(rep.Holds)})
		return dist, rep.Holds, nil
	}
	ok := true
	_, holds, err := run("honest + passive adversary", "strong coin",
		coinflip.Real("x", 2), coinflip.Ideal("x"),
		coinflip.PassiveAdv("x", 2), coinflip.PassiveSim("x"), passive)
	if err != nil {
		return nil, err
	}
	ok = ok && holds
	dist, holds, err := run("corrupt player + rushing adversary", "strong coin",
		coinflip.RealCorrupt("x", 2), coinflip.Ideal("x"),
		coinflip.RushingAdv("x"), coinflip.NullSim("x"), rushing)
	if err != nil {
		return nil, err
	}
	ok = ok && !holds && abs(dist-0.5) < 1e-9
	_, holds, err = run("corrupt player + rushing adversary", "weak (biasable) coin",
		coinflip.RealCorrupt("x", 2), coinflip.WeakIdeal("x"),
		coinflip.RushingAdv("x"), coinflip.RushSim("x"), rushing)
	if err != nil {
		return nil, err
	}
	ok = ok && holds
	t.Verdict = verdict(ok, "passive ε=0; rushing bias exactly 1/2 against the strong coin; weak coin repairs it")
	return t, nil
}

// E15FamilyEmulation measures Def 4.26 in its native family form: the
// leaky-pad channel family (leak 2^-k) securely emulates the ideal channel
// family with the negligible error curve 2^-(k+1), measured exactly.
func E15FamilyEmulation() (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "family-level secure emulation ≤_SE with negligible error (Def 4.26 verbatim)",
		Header: []string{"k", "leak 2^-k", "ε(k)", "measured dist", "holds"},
	}
	real := core.SFamily(func(k int) structured.SPSIOA {
		return channel.LeakyReal("x", bounded.Negl(2)(k))
	})
	ideal := core.SFamily(func(k int) structured.SPSIOA { return channel.Ideal("x") })
	cases := []core.AdvSimFamily{{
		Adv: func(k int) psioa.PSIOA { return channel.Eavesdropper("x") },
		Sim: func(k int) psioa.PSIOA { return channel.SimFor("x") },
	}}
	optFor := func(k int) core.Options {
		return core.Options{
			Envs: []psioa.PSIOA{channel.Env("x", 0), channel.Env("x", 1)},
			Schema: &sched.PrefixPrioritySchema{Templates: [][]string{
				{"send", "encrypt", "tap", "notify", "fabricate", "g_tap", "guess", "deliver"},
				{"send", "encrypt", "tap", "notify", "deliver"},
			}},
			Insight: insight.Trace(),
			Eps:     bounded.Negl(2)(k) / 2,
			Q1:      8, Q2: 8,
		}
	}
	rep, err := core.SecureEmulatesFamily(real, ideal, cases, optFor, 1, 7, 50000)
	if err != nil {
		return nil, err
	}
	f := rep.MaxDistFn()
	ok := rep.Holds
	for k := 1; k <= 7; k++ {
		eps := bounded.Negl(2)(k) / 2
		ok = ok && abs(f(k)-eps) < 1e-9
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), f6(bounded.Negl(2)(k)), f6(eps), f6(f(k)), fmt.Sprint(rep.PerK[k].Holds),
		})
	}
	if err := core.NegPtEmulation(rep, bounded.Negl(2), 1, 7); err != nil {
		ok = false
	}
	t.Verdict = verdict(ok, "emulation error is exactly leak/2 = 2^-(k+1), a negligible function")
	return t, nil
}

// E16SchedulingRole measures the role-of-scheduling phenomenon the paper
// inherits from Canetti et al. [5]: a system resolving a choice by internal
// randomness is implemented by a system leaving the choice to the scheduler
// only if the scheduler schema contains *probabilistic* schedulers. With
// deterministic off-line schedulers the relation fails by exactly 1/2; with
// convex mixtures (Def 3.1's sub-probability choices) it holds at ε = 0.
func E16SchedulingRole() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "the role of scheduling ([5]): matching internal randomness needs probabilistic schedulers",
		Header: []string{"right-side schema", "measured dist", "holds at ε=0"},
	}
	// S1 resolves the choice internally (uniform flip, then announce).
	s1 := testaut.Coin("c", 0.5)
	// S2 leaves the choice to the scheduler: both announcements enabled.
	s2 := psioa.NewBuilder("c2", "n0").
		AddState("n0", psioa.NewSignature(nil, []psioa.Action{"heads_c", "tails_c"}, nil)).
		AddState("done", psioa.EmptySignature()).
		AddDet("n0", "heads_c", "done").
		AddDet("n0", "tails_c", "done").
		MustBuild()
	leftSched := func(a psioa.PSIOA, bound int) []sched.Scheduler {
		return []sched.Scheduler{
			&sched.Priority{A: a, Order: []psioa.Action{"flip_c", "heads_c", "tails_c"}, Bound: bound, LocalOnly: true},
		}
	}
	det := func(a psioa.PSIOA, bound int) []sched.Scheduler {
		if a.ID() != "nullenv||c2" {
			return leftSched(a, bound)
		}
		return []sched.Scheduler{
			&sched.Sequence{A: a, Acts: []psioa.Action{"heads_c"}, LocalOnly: true},
			&sched.Sequence{A: a, Acts: []psioa.Action{"tails_c"}, LocalOnly: true},
		}
	}
	mixed := func(a psioa.PSIOA, bound int) []sched.Scheduler {
		base := det(a, bound)
		if a.ID() != "nullenv||c2" {
			return base
		}
		return append(base, &sched.Mix{Weights: []float64{0.5, 0.5}, Inner: base})
	}
	ok := true
	for _, cse := range []struct {
		name    string
		schema  func(a psioa.PSIOA, bound int) []sched.Scheduler
		holds   bool
		wantEps float64
	}{
		{"deterministic off-line", det, false, 0.5},
		{"with convex mixtures", mixed, true, 0},
	} {
		rep, err := core.Implements(s1, s2, core.Options{
			Envs:    []psioa.PSIOA{psioa.Null("nullenv")},
			Schema:  &sched.FixedSchema{ID: cse.name, Default: cse.schema},
			Insight: insight.Trace(),
			Eps:     0,
			Q1:      3, Q2: 3,
		})
		if err != nil {
			return nil, err
		}
		pass := rep.Holds == cse.holds && abs(rep.MaxDist-cse.wantEps) < 1e-9
		ok = ok && pass
		t.Rows = append(t.Rows, []string{cse.name, f6(rep.MaxDist), fmt.Sprint(rep.Holds)})
	}
	t.Verdict = verdict(ok, "deterministic schedulers miss by exactly 1/2; a 50/50 mixture matches exactly")
	return t, nil
}

// E17SamplingConvergence measures the Monte-Carlo estimator of f-dist
// against the exact computation: the total-variation error decays as
// ~1/sqrt(n) — the figure-style dataset for choosing between the exact and
// sampled pipelines.
func E17SamplingConvergence() (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "Monte-Carlo f-dist estimation: TV error vs sample count (~1/sqrt(n))",
		Header: []string{"samples", "TV error", "error·sqrt(n)"},
	}
	w := testaut.RandomWalk("w", 6, 0.5)
	s := &sched.Greedy{A: w, Bound: 10, LocalOnly: true}
	em, err := sched.Measure(w, s, 12)
	if err != nil {
		return nil, err
	}
	exact := insight.Image(w, em, insight.Trace())
	traceOf := func(f *psioa.Frag) string { return f.TraceKey(w) }
	stream := rng.New(20260705)
	ok := true
	first, last := -1.0, 0.0
	for _, n := range []int{100, 1000, 10000, 100000} {
		est, err := sched.SampleImage(w, s, stream.Split(uint64(n)), 12, n, traceOf)
		if err != nil {
			return nil, err
		}
		tv := measure.TVDistance(exact, est)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), f6(tv), f6(tv * sqrt(float64(n)))})
		// The normalised error stays O(1) (individual steps fluctuate).
		if tv*sqrt(float64(n)) > 1 {
			ok = false
		}
		if first < 0 {
			first = tv
		}
		last = tv
	}
	ok = ok && last < first
	t.Verdict = verdict(ok, "error decays overall; normalised error·sqrt(n) stays bounded")
	return t, nil
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// Runners returns every experiment keyed by id, each wrapped with
// Instrumented, in suite order.
func Runners() (ids []string, byID map[string]func() (*Table, error)) {
	type entry struct {
		id  string
		run func() (*Table, error)
	}
	entries := []entry{
		{"E1", E1CompositionBound}, {"E2", E2PCACompositionBound}, {"E3", E3HidingBound},
		{"E4", E4Transitivity}, {"E5", E5Composability}, {"E6", E6FamilyNegPt},
		{"E7", E7DummyInsertion}, {"E8", E8SecureEmulation}, {"E9", E9DynamicCreation},
		{"E10", E10Scaling}, {"E11", E11DynamicEmulation}, {"E12", E12Commitment},
		{"E13", E13CreationMonotonicity}, {"E14", E14CoinFlipping}, {"E15", E15FamilyEmulation},
		{"E16", E16SchedulingRole}, {"E17", E17SamplingConvergence},
		{"E18", E18EngineEquivalence},
		{"E20", E20DAGCollapse}, {"E22", E22ClusterEquivalence},
	}
	byID = make(map[string]func() (*Table, error), len(entries))
	for _, e := range entries {
		ids = append(ids, e.id)
		byID[e.id] = Instrumented(e.id, e.run)
	}
	return ids, byID
}

// All runs every experiment in order.
func All() ([]*Table, error) {
	ids, byID := Runners()
	out := make([]*Table, 0, len(ids))
	for _, id := range ids {
		tbl, err := byID[id]()
		if err != nil {
			return out, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

func verdict(ok bool, detail string) string {
	if ok {
		return "PASS — " + detail
	}
	return "FAIL — " + detail
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
