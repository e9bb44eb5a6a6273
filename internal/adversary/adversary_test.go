package adversary_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/insight"
	"repro/internal/measure"
	"repro/internal/protocols/channel"
	"repro/internal/protocols/coinflip"
	"repro/internal/protocols/dynchannel"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/structured"
)

// leakyChannel is a structured protocol automaton with environment
// interface {send, recv} and adversary interface {leak (output), drop
// (input)}: after receiving a message it may leak to the adversary, the
// adversary may drop the message, or it is delivered.
func leakyChannel() *structured.Structured {
	t := psioa.NewBuilder("chan", "s0").
		AddState("s0", psioa.NewSignature([]psioa.Action{"send"}, nil, nil)).
		AddState("s1", psioa.NewSignature([]psioa.Action{"drop"}, []psioa.Action{"leak", "recv"}, nil)).
		AddState("s2", psioa.NewSignature([]psioa.Action{"drop"}, []psioa.Action{"recv"}, nil)).
		AddState("s3", psioa.NewSignature([]psioa.Action{"send"}, nil, nil)).
		AddDet("s0", "send", "s1").
		AddDet("s1", "leak", "s2").
		AddDet("s1", "drop", "s3").
		AddDet("s1", "recv", "s0").
		AddDet("s2", "drop", "s3").
		AddDet("s2", "recv", "s0").
		AddDet("s3", "send", "s3").
		MustBuild()
	return structured.NewSet(t, psioa.NewActionSet("send", "recv"))
}

// g is the adversary-action renaming for leakyChannel.
func gMap() map[psioa.Action]psioa.Action {
	return map[psioa.Action]psioa.Action{"leak": "g_leak", "drop": "g_drop"}
}

// dropperAdv drops the message after seeing a leak; it speaks the g-renamed
// interface.
func dropperAdv() *psioa.Table {
	return psioa.NewBuilder("adv", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"g_leak"}, nil, nil)).
		AddState("a1", psioa.NewSignature([]psioa.Action{"g_leak"}, []psioa.Action{"g_drop"}, nil)).
		AddState("a2", psioa.NewSignature([]psioa.Action{"g_leak"}, nil, nil)).
		AddDet("a0", "g_leak", "a1").
		AddDet("a1", "g_leak", "a1").
		AddDet("a1", "g_drop", "a2").
		AddDet("a2", "g_leak", "a2").
		MustBuild()
}

// sender is an environment that sends one message and listens for delivery.
func sender() *psioa.Table {
	return psioa.NewBuilder("env", "e0").
		AddState("e0", psioa.NewSignature([]psioa.Action{"recv"}, []psioa.Action{"send"}, nil)).
		AddState("e1", psioa.NewSignature([]psioa.Action{"recv"}, nil, nil)).
		AddState("e2", psioa.NewSignature([]psioa.Action{"recv"}, nil, nil)).
		AddDet("e0", "send", "e1").
		AddDet("e0", "recv", "e2").
		AddDet("e1", "recv", "e2").
		AddDet("e2", "recv", "e2").
		MustBuild()
}

func TestInterfaceOf(t *testing.T) {
	a := leakyChannel()
	iface, err := adversary.InterfaceOf(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !iface.AO.Equal(psioa.NewActionSet("leak")) {
		t.Errorf("AO = %v", iface.AO)
	}
	if !iface.AI.Equal(psioa.NewActionSet("drop")) {
		t.Errorf("AI = %v", iface.AI)
	}
	if !iface.AAct().Equal(psioa.NewActionSet("leak", "drop")) {
		t.Errorf("AAct = %v", iface.AAct())
	}
}

func TestInterfaceOfMixedDirection(t *testing.T) {
	// An action that is an adversary input at one state and output at
	// another is classified as an output (the protocol produces it; the
	// input occurrences are unmatched-listening states).
	amb := psioa.NewBuilder("amb", "q0").
		AddState("q0", psioa.NewSignature([]psioa.Action{"x"}, nil, nil)).
		AddState("q1", psioa.NewSignature(nil, []psioa.Action{"x"}, nil)).
		AddDet("q0", "x", "q1").
		AddDet("q1", "x", "q0").
		MustBuild()
	s := structured.NewSet(amb, psioa.NewActionSet())
	iface, err := adversary.InterfaceOf(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !iface.AO.Has("x") || iface.AI.Has("x") {
		t.Errorf("mixed-direction action misclassified: AI=%v AO=%v", iface.AI, iface.AO)
	}
}

func TestIsAdversaryFor(t *testing.T) {
	a := leakyChannel()
	// A proper adversary speaking the *real* interface (no renaming):
	// inputs leak, outputs drop.
	good := psioa.NewBuilder("adv0", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"leak"}, []psioa.Action{"drop"}, nil)).
		AddDet("a0", "leak", "a0").
		AddDet("a0", "drop", "a0").
		MustBuild()
	if err := adversary.IsAdversaryFor(good, a, 1000); err != nil {
		t.Errorf("good adversary rejected: %v", err)
	}
	// An adversary that also listens to the environment action recv.
	nosy := psioa.NewBuilder("nosy", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"leak", "recv"}, []psioa.Action{"drop"}, nil)).
		AddDet("a0", "leak", "a0").
		AddDet("a0", "recv", "a0").
		AddDet("a0", "drop", "a0").
		MustBuild()
	if err := adversary.IsAdversaryFor(nosy, a, 1000); err == nil {
		t.Error("environment-touching adversary accepted")
	}
	// An adversary that does not drive the adversary input drop.
	lazy := psioa.NewBuilder("lazy", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"leak"}, nil, nil)).
		AddDet("a0", "leak", "a0").
		MustBuild()
	if err := adversary.IsAdversaryFor(lazy, a, 1000); err == nil {
		t.Error("adversary not covering AI accepted")
	}
}

func TestAdversaryForCompositionIsAdversaryForComponent(t *testing.T) {
	// Lemma 4.25: an adversary for A‖B is an adversary for A.
	a := leakyChannel()
	bT := psioa.NewBuilder("other", "q").
		AddState("q", psioa.NewSignature(nil, []psioa.Action{"tick"}, nil)).
		AddDet("q", "tick", "q").
		MustBuild()
	b := structured.NewSet(bT, psioa.NewActionSet()) // tick is adversary-facing
	ab := structured.MustCompose(a, b)
	adv := psioa.NewBuilder("advAB", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"leak", "tick"}, []psioa.Action{"drop"}, nil)).
		AddDet("a0", "leak", "a0").
		AddDet("a0", "tick", "a0").
		AddDet("a0", "drop", "a0").
		MustBuild()
	if err := adversary.IsAdversaryFor(adv, ab, 1000); err != nil {
		t.Fatalf("adversary for composition rejected: %v", err)
	}
	if err := adversary.IsAdversaryFor(adv, a, 1000); err != nil {
		t.Errorf("Lemma 4.25 violated: %v", err)
	}
}

func TestDummyConstruction(t *testing.T) {
	a := leakyChannel()
	iface, _ := adversary.InterfaceOf(a, 100)
	d, err := adversary.Dummy("D", iface, gMap())
	if err != nil {
		t.Fatal(err)
	}
	if err := psioa.Validate(d, 100); err != nil {
		t.Fatalf("dummy invalid: %v", err)
	}
	q0 := d.Start()
	sig := d.Sig(q0)
	if !sig.In.Equal(psioa.NewActionSet("leak", "g_drop")) {
		t.Errorf("dummy inputs = %v", sig.In)
	}
	if len(sig.Out) != 0 {
		t.Errorf("dummy at ⊥ has outputs: %v", sig.Out)
	}
	// Receive leak → pending; output must be g_leak.
	q1 := d.Trans(q0, "leak").Support()[0]
	if !d.Sig(q1).Out.Equal(psioa.NewActionSet("g_leak")) {
		t.Errorf("pending-leak outputs = %v", d.Sig(q1).Out)
	}
	// Forward clears pending.
	q2 := d.Trans(q1, "g_leak").Support()[0]
	if q2 != d.Start() {
		t.Errorf("forward did not clear pending: %q", q2)
	}
	// Command direction: g_drop pending forwards as drop.
	q3 := d.Trans(q0, "g_drop").Support()[0]
	if !d.Sig(q3).Out.Equal(psioa.NewActionSet("drop")) {
		t.Errorf("pending-command outputs = %v", d.Sig(q3).Out)
	}
	// ForwardOf.
	if f, _ := d.ForwardOf("leak"); f != "g_leak" {
		t.Errorf("ForwardOf(leak) = %q", f)
	}
	if f, _ := d.ForwardOf("g_drop"); f != "drop" {
		t.Errorf("ForwardOf(g_drop) = %q", f)
	}
	if _, err := d.ForwardOf("junk"); err == nil {
		t.Error("ForwardOf(junk) accepted")
	}
	// Overwrite semantics: a new input replaces the pending value.
	q4 := d.Trans(q1, "g_drop").Support()[0]
	if !d.Sig(q4).Out.Equal(psioa.NewActionSet("drop")) {
		t.Errorf("overwritten pending outputs = %v", d.Sig(q4).Out)
	}
}

func TestDummyConstructionErrors(t *testing.T) {
	a := leakyChannel()
	iface, _ := adversary.InterfaceOf(a, 100)
	// Missing mapping.
	if _, err := adversary.Dummy("D", iface, map[psioa.Action]psioa.Action{"leak": "g_leak"}); err == nil {
		t.Error("partial g accepted")
	}
	// Non-fresh target.
	if _, err := adversary.Dummy("D", iface, map[psioa.Action]psioa.Action{"leak": "drop", "drop": "g_drop"}); err == nil {
		t.Error("non-fresh g accepted")
	}
	// Non-injective.
	if _, err := adversary.Dummy("D", iface, map[psioa.Action]psioa.Action{"leak": "x", "drop": "x"}); err == nil {
		t.Error("non-injective g accepted")
	}
}

func newCtx(t *testing.T) *adversary.ForwardCtx {
	t.Helper()
	ctx, err := adversary.NewForwardCtx(sender(), leakyChannel(), dropperAdv(), gMap(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestForwardCtxWorldsValid(t *testing.T) {
	ctx := newCtx(t)
	if err := psioa.Validate(ctx.W1, 10000); err != nil {
		t.Errorf("W1 invalid: %v", err)
	}
	if err := psioa.Validate(ctx.W2, 10000); err != nil {
		t.Errorf("W2 invalid: %v", err)
	}
}

func TestForwardExecRoundTrip(t *testing.T) {
	ctx := newCtx(t)
	// Drive W1: send, g_leak (A leaks via renamed action), g_drop (Adv
	// drops).
	s1 := &sched.Sequence{A: ctx.W1, Acts: []psioa.Action{"send", "g_leak", "g_drop"}}
	em, err := sched.Measure(ctx.W1, s1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if em.Len() != 1 {
		t.Fatalf("W1 support = %d, want 1 (deterministic)", em.Len())
	}
	em.ForEach(func(alpha *psioa.Frag, p float64) {
		fwd, err := ctx.ForwardExec(alpha)
		if err != nil {
			t.Fatal(err)
		}
		// Each adversary-interface action doubles: 3 → 1 + 2 + 2 = 5.
		if fwd.Len() != 5 {
			t.Fatalf("forwarded length = %d, want 5 (%v)", fwd.Len(), fwd)
		}
		if !fwd.IsExecOf(ctx.W2) {
			t.Fatalf("forwarded fragment is not an execution of W2: %v", fwd)
		}
		back, pending, ok := ctx.UnforwardExec(fwd)
		if !ok || pending != "" {
			t.Fatalf("UnforwardExec failed: ok=%v pending=%q", ok, pending)
		}
		if back.Key() != alpha.Key() {
			t.Errorf("round trip mismatch:\n %v\n %v", alpha, back)
		}
	})
}

func TestUnforwardRejectsBrokenForwarding(t *testing.T) {
	ctx := newCtx(t)
	// An execution of W2 where the dummy receives leak but something else
	// happens before the forward is outside the image of Forward^e.
	s := &sched.Sequence{A: ctx.W2, Acts: []psioa.Action{"send", "leak", "recv"}}
	em, err := sched.Measure(ctx.W2, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	em.ForEach(func(alpha *psioa.Frag, p float64) {
		if alpha.Len() != 3 {
			return
		}
		if _, _, ok := ctx.UnforwardExec(alpha); ok {
			t.Errorf("broken forwarding accepted: %v", alpha)
		}
	})
}

func TestUnforwardPending(t *testing.T) {
	ctx := newCtx(t)
	s := &sched.Sequence{A: ctx.W2, Acts: []psioa.Action{"send", "leak"}}
	em, err := sched.Measure(ctx.W2, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	em.ForEach(func(alpha *psioa.Frag, p float64) {
		if alpha.Len() != 2 {
			return
		}
		found = true
		_, pending, ok := ctx.UnforwardExec(alpha)
		if !ok || pending != "leak" {
			t.Errorf("pending = %q ok=%v, want leak/true", pending, ok)
		}
	})
	if !found {
		t.Fatal("expected a length-2 execution")
	}
}

// lemma429Check verifies f-dist equality between σ on W1 and Forward^s(σ)
// on W2 — the ε = 0 balance at the heart of Lemma 4.29/D.1.
func lemma429Check(t *testing.T, ctx *adversary.ForwardCtx, s1 sched.Scheduler, f insight.Insight) {
	t.Helper()
	s2 := ctx.ForwardSched(s1)
	d1, err := insight.FDist(ctx.W1, s1, f, 40)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := insight.FDist(ctx.W2, s2, f, 40)
	if err != nil {
		t.Fatal(err)
	}
	if dist := insight.Distance(d1, d2); dist > 1e-9 {
		t.Errorf("scheduler %s: f-dist distance = %v, want 0\n d1=%v\n d2=%v", s1.Name(), dist, d1, d2)
	}
}

func TestDummyInsertionDeterministicScheds(t *testing.T) {
	ctx := newCtx(t)
	seqs := [][]psioa.Action{
		{"send", "g_leak", "g_drop"},
		{"send", "recv"},
		{"send", "g_leak", "recv"},
		{"send", "g_drop"},
		{"send"},
		{},
		{"g_leak"}, // disabled at start: halts in both worlds
	}
	for _, acts := range seqs {
		lemma429Check(t, ctx, &sched.Sequence{A: ctx.W1, Acts: acts}, insight.Trace())
	}
}

func TestDummyInsertionProbabilisticSched(t *testing.T) {
	ctx := newCtx(t)
	// A probabilistic scheduler mixing delivery and adversary interaction.
	mix := &sched.FuncSched{ID: "mix", Fn: func(f *psioa.Frag) *sched.Choice {
		enabled := ctx.W1.Sig(f.LState()).All().Sorted()
		if f.Len() >= 6 || len(enabled) == 0 {
			return sched.Halt()
		}
		ch := sched.Halt()
		total := 0.9 // halt with probability 0.1
		for i, a := range enabled {
			w := total / float64(len(enabled))
			// Skew toward earlier actions to avoid a uniform special case.
			if i == 0 {
				w += total / 10
			}
			ch.Add(a, w)
		}
		// Renormalise to ≤ 1.
		scale := total / ch.Total()
		out := sched.Halt()
		ch.ForEach(func(a psioa.Action, p float64) { out.Add(a, p*scale) })
		return out
	}}
	lemma429Check(t, ctx, mix, insight.Trace())
	lemma429Check(t, ctx, mix, insight.Accept("recv"))
}

func TestCheckBravePair(t *testing.T) {
	// The (priority/sequence schema, trace) pair is brave on the channel
	// context (Def 4.28): perceptions transport along Forward^e and
	// Forward^s stays in the scheduler space.
	ctx := newCtx(t)
	tr := insight.Trace()
	f1 := func(a *psioa.Frag) string { return tr.Apply(ctx.W1, a) }
	f2 := func(a *psioa.Frag) string { return tr.Apply(ctx.W2, a) }
	scheds := []sched.Scheduler{
		&sched.Sequence{A: ctx.W1, Acts: []psioa.Action{"send", "g_leak", "g_drop"}},
		&sched.Sequence{A: ctx.W1, Acts: []psioa.Action{"send", "recv"}},
		&sched.Random{A: ctx.W1, Bound: 4, LocalOnly: true},
	}
	if err := ctx.CheckBrave(scheds, f1, f2, 20); err != nil {
		t.Errorf("brave pair rejected: %v", err)
	}
	// A non-transporting "insight" (the raw execution key, which sees the
	// dummy's extra steps) is not brave.
	raw := func(a *psioa.Frag) string { return a.Key() }
	if err := ctx.CheckBrave(scheds[:1], raw, raw, 20); err == nil {
		t.Error("state-revealing insight accepted as brave")
	}
}

func TestForwardSchedBoundDoubles(t *testing.T) {
	ctx := newCtx(t)
	s1 := &sched.Bounded{Inner: &sched.Random{A: ctx.W1, Bound: 3}, B: 3}
	s2 := ctx.ForwardSched(s1)
	// σ q1-bounded ⇒ σ′ 2·q1-bounded (Lemma 4.29 proof sets q2 = 2q1).
	if err := sched.IsBounded(ctx.W2, s2, 6); err != nil {
		t.Errorf("forwarded scheduler exceeds 2·q1: %v", err)
	}
}

func TestForwardSchedHaltProbabilityPreserved(t *testing.T) {
	ctx := newCtx(t)
	// Scheduler that halts with probability 0.5 at the start.
	s1 := &sched.FuncSched{ID: "half", Fn: func(f *psioa.Frag) *sched.Choice {
		if f.Len() > 0 {
			return sched.Halt()
		}
		ch := measure.New[psioa.Action]()
		ch.Add("send", 0.5)
		return ch
	}}
	s2 := ctx.ForwardSched(s1)
	em1, err := sched.Measure(ctx.W1, s1, 10)
	if err != nil {
		t.Fatal(err)
	}
	em2, err := sched.Measure(ctx.W2, s2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(em1.Total()-em2.Total()) > 1e-9 {
		t.Errorf("total mass differs: %v vs %v", em1.Total(), em2.Total())
	}
	if math.Abs(em2.P(psioa.NewFrag(ctx.W2.Start()))-0.5) > 1e-9 {
		t.Error("halting mass not preserved")
	}
}

// refIsAdversaryFor is IsAdversaryFor as it was first written: every
// structure function of the host and the adversary's signature evaluated
// again at each product state, and the unions rebuilt at each state.
func refIsAdversaryFor(adv psioa.PSIOA, s structured.SPSIOA, limit int) error {
	p, err := psioa.Compose(psioa.Atom(s), psioa.Atom(adv))
	if err != nil {
		return err
	}
	ex, err := psioa.Explore(p, limit)
	if err != nil {
		return fmt.Errorf("adversary: %q not partially compatible with %q: %w", adv.ID(), s.ID(), err)
	}
	aiUnion := psioa.NewActionSet()
	aoUnion := psioa.NewActionSet()
	advOutUnion := psioa.NewActionSet()
	for _, q := range ex.States {
		qs := p.Split(q)
		qa, qadv := qs[0], qs[1]
		aiUnion = aiUnion.Union(structured.AI(s, qa))
		aoUnion = aoUnion.Union(structured.AO(s, qa))
		advOutUnion = advOutUnion.Union(adv.Sig(qadv).Out)
		if overlap := s.EAct(qa).Intersect(adv.Sig(qadv).All()); len(overlap) > 0 {
			return fmt.Errorf("adversary: %q touches environment actions %v of %q at state %q", adv.ID(), overlap, s.ID(), q)
		}
	}
	if missing := aiUnion.Minus(aoUnion).Minus(advOutUnion); len(missing) > 0 {
		return fmt.Errorf("adversary: %q does not drive adversary inputs %v of %q", adv.ID(), missing, s.ID())
	}
	return nil
}

// TestIsAdversaryForMatchesReference: on the adversary and simulator
// checks of E7, E8, E11 and E14, and on two failing adversaries, the
// check that evaluates each component state once gives the per-state
// reference's verdict and error text.
func TestIsAdversaryForMatchesReference(t *testing.T) {
	type check struct {
		name   string
		adv    psioa.PSIOA
		s      structured.SPSIOA
		limit  int
		failed bool
	}
	var checks []check
	add := func(name string, adv psioa.PSIOA, s structured.SPSIOA, limit int) {
		checks = append(checks, check{name, adv, s, limit, false})
	}
	// E7: the eavesdropper and the dummy adversary NewForwardCtx inserts.
	iface, err := adversary.InterfaceOf(channel.Real("x"), 10000)
	if err != nil {
		t.Fatal(err)
	}
	add("E7/eavesdropper", channel.Eavesdropper("x"), channel.Real("x"), 10000)
	add("E7/dummy", adversary.MustDummy("dummy(x)", iface, channel.G("x")), channel.Real("x"), 10000)
	// E8: the leak sweep and Theorem 4.30's composed instance.
	for _, leak := range []float64{0, 0.125, 0.25, 0.5} {
		add(fmt.Sprintf("E8/leak=%v", leak), channel.Eavesdropper("x"), channel.LeakyReal("x", leak), 50000)
	}
	add("E8/sim", channel.SimFor("x"), channel.Ideal("x"), 50000)
	g := channel.G("a")
	for k, v := range channel.G("b") {
		g[k] = v
	}
	adv := psioa.MustCompose(channel.Eavesdropper("a"), channel.Eavesdropper("b"))
	sim, err := core.ComposedSimulator(g, []psioa.PSIOA{channel.DummySim("a"), channel.DummySim("b")}, adv)
	if err != nil {
		t.Fatal(err)
	}
	add("E8/composed-adv", adv, structured.MustCompose(channel.Real("a"), channel.Real("b")), 10000)
	add("E8/composed-sim", sim, structured.MustCompose(channel.Ideal("a"), channel.Ideal("b")), 10000)
	// E11: one and two run-time-created sessions.
	for _, n := range []int{1, 2} {
		add(fmt.Sprintf("E11/adv-%d", n), dynchannel.Adversary("d", n), dynchannel.Host("d", n, dynchannel.RealKind), 20000)
		add(fmt.Sprintf("E11/sim-%d", n), dynchannel.Simulator("d", n), dynchannel.Host("d", n, dynchannel.IdealKind), 20000)
	}
	// E14: the passive, rushing and weak-coin scenarios.
	add("E14/passive-adv", coinflip.PassiveAdv("x", 2), coinflip.Real("x", 2), 50000)
	add("E14/passive-sim", coinflip.PassiveSim("x"), coinflip.Ideal("x"), 50000)
	add("E14/rushing-adv", coinflip.RushingAdv("x"), coinflip.RealCorrupt("x", 2), 50000)
	add("E14/null-sim", coinflip.NullSim("x"), coinflip.Ideal("x"), 50000)
	add("E14/rush-sim", coinflip.RushSim("x"), coinflip.WeakIdeal("x"), 50000)
	// An adversary that listens to the environment action recv once it
	// has seen a leak, so the overlap shows first at a later state.
	nosy := psioa.NewBuilder("nosy", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"leak"}, []psioa.Action{"drop"}, nil)).
		AddState("a1", psioa.NewSignature([]psioa.Action{"leak", "recv"}, []psioa.Action{"drop"}, nil)).
		AddDet("a0", "leak", "a1").
		AddDet("a0", "drop", "a0").
		AddDet("a1", "leak", "a1").
		AddDet("a1", "recv", "a1").
		AddDet("a1", "drop", "a1").
		MustBuild()
	checks = append(checks, check{"touches-environment", nosy, leakyChannel(), 1000, true})
	// An adversary that never drives the adversary input drop.
	lazy := psioa.NewBuilder("lazy", "a0").
		AddState("a0", psioa.NewSignature([]psioa.Action{"leak"}, nil, nil)).
		AddDet("a0", "leak", "a0").
		MustBuild()
	checks = append(checks, check{"undriven-input", lazy, leakyChannel(), 1000, true})
	for _, c := range checks {
		want := refIsAdversaryFor(c.adv, c.s, c.limit)
		got := adversary.IsAdversaryFor(c.adv, c.s, c.limit)
		if (want != nil) != c.failed {
			t.Fatalf("%s: reference verdict %v, want failure %v", c.name, want, c.failed)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: IsAdversaryFor = %v, reference %v", c.name, got, want)
		}
	}
}
