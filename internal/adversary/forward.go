package adversary

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/structured"
)

// ForwardCtx packages the two worlds of the dummy-adversary insertion lemma
// (Lemma 4.29 / Appendix D) for a concrete (E, A, g, Adv):
//
//	W1 = E ‖ g(A) ‖ Adv                       (the outer adversary speaks
//	                                           to the renamed protocol
//	                                           directly)
//	W2 = E ‖ hide(A ‖ Dummy(A,g), AAct_A) ‖ Adv   (the dummy forwards)
//
// and provides the Forward^e execution transport and the Forward^s
// scheduler transport whose existence the lemma's proof constructs.
//
// An occurrence of a renamed action g(b) in W1 is a *forward* occurrence
// when A actually participates (b ∈ out(A)(q_A) for b ∈ AO, or
// b ∈ in(A)(q_A) for b ∈ AI): it maps to two W2 steps, the real action and
// the dummy's forward. When A does not participate — an orphan input to
// Adv, or a command A cannot hear — the action maps to a single W2 step; in
// the command case the dummy still intercepts it and is left holding a
// stale pending value, which the transport tracks (a later input simply
// overwrites it, matching Def 4.27's transition relation).
type ForwardCtx struct {
	E   psioa.PSIOA
	A   structured.SPSIOA
	Adv psioa.PSIOA

	Iface *Interface
	Dum   *DummyAdv
	g     map[psioa.Action]psioa.Action
	ginv  map[psioa.Action]psioa.Action

	// GA is g(A); H is hide(A‖Dummy, AAct_A).
	GA psioa.PSIOA
	H  psioa.PSIOA
	// W1 and W2 are the two composed worlds.
	W1 *psioa.Product
	W2 *psioa.Product
}

// NewForwardCtx builds the two worlds. g must be a fresh bijection on the
// adversary interface of A (see Dummy). limit bounds the exploration that
// computes the interface.
func NewForwardCtx(e psioa.PSIOA, a structured.SPSIOA, adv psioa.PSIOA, g map[psioa.Action]psioa.Action, limit int) (*ForwardCtx, error) {
	iface, err := InterfaceOf(a, limit)
	if err != nil {
		return nil, err
	}
	dum, err := Dummy("dummy("+a.ID()+")", iface, g)
	if err != nil {
		return nil, err
	}
	ga := psioa.RenameMap(a, g)
	inner, err := psioa.Compose(psioa.Atom(a), dum)
	if err != nil {
		return nil, err
	}
	h := psioa.HideSet(inner, iface.AAct())
	// Atoms keep the worlds' states positional triples even when E, A or
	// Adv are themselves compositions.
	w1, err := psioa.Compose(psioa.Atom(e), ga, psioa.Atom(adv))
	if err != nil {
		return nil, err
	}
	w2, err := psioa.Compose(psioa.Atom(e), h, psioa.Atom(adv))
	if err != nil {
		return nil, err
	}
	ginv := make(map[psioa.Action]psioa.Action, len(g))
	for k, v := range g {
		ginv[v] = k
	}
	return &ForwardCtx{
		E: e, A: a, Adv: adv,
		Iface: iface, Dum: dum, g: g, ginv: ginv,
		GA: ga, H: h, W1: w1, W2: w2,
	}, nil
}

// splitW1 returns (qE, qA, qAdv) of a W1 state.
func (c *ForwardCtx) splitW1(q psioa.State) (psioa.State, psioa.State, psioa.State) {
	qs := c.W1.Split(q)
	return qs[0], qs[1], qs[2]
}

// joinW2 assembles a W2 state from (qE, qA, qDummy, qAdv).
func (c *ForwardCtx) joinW2(qE, qA, qD, qAdv psioa.State) psioa.State {
	inner := c.H.(*psioa.Hidden).Inner().(*psioa.Product)
	return c.W2.Join([]psioa.State{qE, inner.Join([]psioa.State{qA, qD}), qAdv})
}

// splitW2 returns (qE, qA, qD, qAdv) of a W2 state.
func (c *ForwardCtx) splitW2(q psioa.State) (psioa.State, psioa.State, psioa.State, psioa.State) {
	qs := c.W2.Split(q)
	inner := c.H.(*psioa.Hidden).Inner().(*psioa.Product)
	hq := inner.Split(qs[1])
	return qs[0], hq[0], hq[1], qs[2]
}

// classify determines the role of a W1 action occurrence at A-state qA.
type fwdClass int

const (
	classEnv     fwdClass = iota // no dummy involvement
	classAOFwd                   // A outputs b, dummy forwards g(b)
	classAIFwd                   // Adv commands g(b), dummy forwards b into A
	classAIStale                 // Adv commands g(b), A cannot hear: dummy holds it
)

func (c *ForwardCtx) classify(act psioa.Action, qA psioa.State) fwdClass {
	orig, renamed := c.ginv[act], act
	_ = renamed
	if orig == "" {
		return classEnv
	}
	sig := c.A.Sig(qA)
	if c.Iface.AO.Has(orig) {
		if sig.Out.Has(orig) {
			return classAOFwd
		}
		return classEnv // orphan input to Adv; dummy does not hear g(b)
	}
	if c.Iface.AI.Has(orig) {
		if sig.In.Has(orig) {
			return classAIFwd
		}
		return classAIStale
	}
	return classEnv
}

// ForwardExec is Forward^e_{(A,g,Adv)}: it transports an execution of W1 to
// the unique corresponding execution of W2 in which every adversary-
// interface action is correctly forwarded by the dummy (the relation α ~ α′
// of Appendix D).
func (c *ForwardCtx) ForwardExec(alpha *psioa.Frag) (*psioa.Frag, error) {
	if alpha.FState() != c.W1.Start() {
		return nil, fmt.Errorf("adversary: ForwardExec needs an execution from the start state")
	}
	qD := c.Dum.Start()
	out := psioa.NewFrag(c.W2.Start())
	for i := 0; i < alpha.Len(); i++ {
		act := alpha.ActionAt(i)
		_, qA0, qAdv0 := c.splitW1(alpha.StateAt(i))
		qE1, qA1, qAdv1 := c.splitW1(alpha.StateAt(i + 1))
		qE0, _, _ := c.splitW1(alpha.StateAt(i))
		orig := c.ginv[act]
		switch c.classify(act, qA0) {
		case classAOFwd:
			// A emits the original action into the dummy (hidden), then the
			// dummy emits g(orig) to Adv/E.
			mid := c.joinW2(qE0, qA1, dummyState(string(orig)), qAdv0)
			out = out.Extend(orig, mid)
			qD = c.Dum.Start()
			out = out.Extend(act, c.joinW2(qE1, qA1, qD, qAdv1))
		case classAIFwd:
			// Adv emits g(orig) into the dummy (Adv and E move), then the
			// dummy emits the original action into A (hidden).
			mid := c.joinW2(qE1, qA0, dummyState(string(act)), qAdv1)
			out = out.Extend(act, mid)
			qD = c.Dum.Start()
			out = out.Extend(orig, c.joinW2(qE1, qA1, qD, qAdv1))
		case classAIStale:
			// The dummy intercepts the command but A cannot hear it; the
			// pending value is held (possibly overwriting a previous one).
			qD = dummyState(string(act))
			out = out.Extend(act, c.joinW2(qE1, qA1, qD, qAdv1))
		default:
			out = out.Extend(act, c.joinW2(qE1, qA1, qD, qAdv1))
		}
	}
	return out, nil
}

// UnforwardExec inverts ForwardExec: it maps a W2 execution back to the W1
// execution it forwards, if any. When the W2 execution ends mid-forward
// (the dummy holds a pending action awaiting its forward step), pending is
// that value; otherwise pending is empty. ok reports whether the W2
// execution is in the image of ForwardExec (possibly plus one pending
// half-step); executions outside the image are never scheduled by
// Forward^s.
func (c *ForwardCtx) UnforwardExec(alpha2 *psioa.Frag) (alpha *psioa.Frag, pending psioa.Action, ok bool) {
	if alpha2.FState() != c.W2.Start() {
		return nil, "", false
	}
	qE0, qA0, _, qAdv0 := c.splitW2(alpha2.StateAt(0))
	alpha = psioa.NewFrag(c.W1.Join([]psioa.State{qE0, qA0, qAdv0}))
	i := 0
	proj := func(idx int) psioa.State {
		qE, qA, _, qAdv := c.splitW2(alpha2.StateAt(idx))
		return c.W1.Join([]psioa.State{qE, qA, qAdv})
	}
	for i < alpha2.Len() {
		act := alpha2.ActionAt(i)
		_, qA, _, _ := c.splitW2(alpha2.StateAt(i))
		orig := c.ginv[act]
		switch {
		case c.Iface.AO.Has(act):
			// Real adversary output of A: first half of a forward.
			if i+1 >= alpha2.Len() {
				return alpha, act, true
			}
			if alpha2.ActionAt(i+1) != c.g[act] {
				return nil, "", false
			}
			alpha = alpha.Extend(c.g[act], proj(i+2))
			i += 2
		case orig != "" && c.Iface.AI.Has(orig) && c.A.Sig(qA).In.Has(orig):
			// Command A can hear: must be forwarded immediately.
			if i+1 >= alpha2.Len() {
				return alpha, act, true
			}
			if alpha2.ActionAt(i+1) != orig {
				return nil, "", false
			}
			alpha = alpha.Extend(act, proj(i+2))
			i += 2
		case orig != "" && c.Iface.AI.Has(orig):
			// Stale command: single step, dummy holds it.
			alpha = alpha.Extend(act, proj(i+1))
			i++
		default:
			// Environment-side step (including orphan g(AO) inputs); the
			// dummy must not have moved.
			if c.Iface.AI.Has(act) {
				// A bare forward step without its first half.
				return nil, "", false
			}
			alpha = alpha.Extend(act, proj(i+1))
			i++
		}
	}
	return alpha, "", true
}

// CheckBrave verifies the substantive conditions of Def 4.28 (a "brave"
// pair of scheduler schema and insight function) on this context, for the
// given schedulers:
//
//   - perception transport: f(α) = f(Forward^e(α)) for every execution α in
//     the support of each scheduler's measure (the third bullet — the first
//     two bullets are definitional for insights that read the action
//     sequence, since hiding only reclassifies actions the insight already
//     ignores);
//   - schema closure: Forward^s(σ) is a well-formed scheduler of W2 whose
//     measure is total (the fourth bullet).
//
// f is given as the insight's Apply function specialised to each world.
func (c *ForwardCtx) CheckBrave(scheds []sched.Scheduler, f1 func(*psioa.Frag) string, f2 func(*psioa.Frag) string, maxDepth int) error {
	for _, s := range scheds {
		em, err := sched.Measure(c.W1, s, maxDepth)
		if err != nil {
			return fmt.Errorf("adversary: CheckBrave: scheduler %q on W1: %w", s.Name(), err)
		}
		var bad error
		em.ForEach(func(alpha *psioa.Frag, p float64) {
			if bad != nil {
				return
			}
			fwd, err := c.ForwardExec(alpha)
			if err != nil {
				bad = err
				return
			}
			if f1(alpha) != f2(fwd) {
				bad = fmt.Errorf("adversary: CheckBrave: perception changed under Forward^e: %q vs %q at %v", f1(alpha), f2(fwd), alpha)
			}
		})
		if bad != nil {
			return bad
		}
		em2, err := sched.Measure(c.W2, c.ForwardSched(s), 2*maxDepth)
		if err != nil {
			return fmt.Errorf("adversary: CheckBrave: Forward^s(%q) ill-formed: %w", s.Name(), err)
		}
		if d := em.Total() - em2.Total(); d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("adversary: CheckBrave: Forward^s(%q) loses mass: %v vs %v", s.Name(), em.Total(), em2.Total())
		}
	}
	return nil
}

// ForwardSched is Forward^s_{(A,g,Adv)}: it transports a scheduler of W1 to
// the scheduler of W2 that mimics it, inserting the dummy's forwarding
// steps (the σ′ constructed in the proof of Lemma D.1). If σ is q₁-bounded
// then the result is 2·q₁-bounded.
func (c *ForwardCtx) ForwardSched(sigma sched.Scheduler) sched.Scheduler {
	return &sched.FuncSched{
		ID: "forward(" + sigma.Name() + ")",
		Fn: func(alpha2 *psioa.Frag) *sched.Choice {
			alpha, pending, ok := c.UnforwardExec(alpha2)
			if !ok {
				return sched.Halt()
			}
			if pending != "" {
				fwd, err := c.Dum.ForwardOf(pending)
				if err != nil {
					return sched.Halt()
				}
				return measure.Dirac(fwd)
			}
			_, qA, _ := c.splitW1(alpha.LState())
			choice := sigma.Choose(alpha)
			out := measure.New[psioa.Action]()
			choice.ForEach(func(a psioa.Action, p float64) {
				if c.classify(a, qA) == classAOFwd {
					// σ asks for A's (renamed) adversary output: in W2 the
					// real (hidden) output fires first.
					out.Add(c.ginv[a], p)
					return
				}
				out.Add(a, p)
			})
			return out
		},
	}
}
