package core

import (
	"fmt"
	"sort"

	"repro/internal/adversary"
	"repro/internal/bounded"
	"repro/internal/obs"
	"repro/internal/psioa"
	"repro/internal/structured"
)

// AdvSim is one adversary/simulator pair for a secure-emulation check: the
// executable rendering of "for every adversary Adv there exists a simulator
// Sim". Sim plays the role the paper's existential quantifier promises; the
// check verifies it actually works.
type AdvSim struct {
	// Adv is an adversary for the real system.
	Adv psioa.PSIOA
	// Sim is the claimed simulator: an adversary for the ideal system.
	Sim psioa.PSIOA
	// Witness optionally maps real-side schedulers to ideal-side schedulers
	// constructively; when nil the check searches the schema exhaustively.
	Witness Witness
}

// EmulationReport aggregates the per-adversary implementation reports of a
// secure-emulation check.
type EmulationReport struct {
	// Holds reports whether every adversary was simulated within ε.
	Holds bool
	// PerAdv maps adversary identifiers to their implementation reports.
	PerAdv map[string]*Report
}

// String summarises the report, listing adversaries in sorted order so the
// rendering is byte-identical run to run (PerAdv is a map).
func (r *EmulationReport) String() string {
	s := fmt.Sprintf("secure-emulation holds=%v adversaries=%d", r.Holds, len(r.PerAdv))
	ids := make([]string, 0, len(r.PerAdv))
	for id := range r.PerAdv {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s += fmt.Sprintf("\n  %s: %s", id, r.PerAdv[id])
	}
	return s
}

// HideAAct returns hide(S‖Other, AAct_S): the composition of a structured
// automaton with a companion (adversary or simulator), with the structured
// automaton's universal adversary actions hidden — the construction
// Def 4.26 compares on both sides.
func HideAAct(s structured.SPSIOA, other psioa.PSIOA, limit int) (psioa.PSIOA, error) {
	ai, err := adversary.InterfaceOf(s, limit)
	if err != nil {
		return nil, err
	}
	comp, err := psioa.Compose(s, other)
	if err != nil {
		return nil, err
	}
	return psioa.HideSet(comp, ai.AAct()), nil
}

// SecureEmulates checks Def 4.26 on the given adversary/simulator pairs:
// for each pair, Adv must be an adversary for real and Sim an adversary for
// ideal, and hide(real‖Adv, AAct_real) ≤^{Sch,f}_{q1,q2,ε}
// hide(ideal‖Sim, AAct_ideal) must hold. limit bounds the reachability
// analyses.
func SecureEmulates(real, ideal structured.SPSIOA, cases []AdvSim, opt Options, limit int) (*EmulationReport, error) {
	c := obs.Enter(opt.ctx(), obs.LayerEmulation, real.ID()+" ~> "+ideal.ID())
	defer c.End()
	tr := obs.Active()
	out := &EmulationReport{Holds: true, PerAdv: make(map[string]*Report, len(cases))}
	for _, cs := range cases {
		if err := adversary.IsAdversaryFor(cs.Adv, real, limit); err != nil {
			return nil, fmt.Errorf("core: %q is not an adversary for %q: %w", cs.Adv.ID(), real.ID(), err)
		}
		if err := adversary.IsAdversaryFor(cs.Sim, ideal, limit); err != nil {
			return nil, fmt.Errorf("core: simulator %q is not an adversary for %q: %w", cs.Sim.ID(), ideal.ID(), err)
		}
		left, err := HideAAct(real, cs.Adv, limit)
		if err != nil {
			return nil, err
		}
		right, err := HideAAct(ideal, cs.Sim, limit)
		if err != nil {
			return nil, err
		}
		var rep *Report
		if cs.Witness != nil {
			rep, err = ImplementsWitness(left, right, cs.Witness, opt)
		} else {
			rep, err = Implements(left, right, opt)
		}
		if err != nil {
			return nil, err
		}
		out.PerAdv[cs.Adv.ID()] = rep
		if !rep.Holds {
			out.Holds = false
		}
		cEmuRounds.Inc()
		if tr.Enabled() {
			status := "ok"
			if !rep.Holds {
				status = "fail"
			}
			tr.Emit(obs.Event{Kind: obs.KindEmuRound, Name: cs.Adv.ID(), Attr: status, V: rep.MaxDist, N: int64(len(rep.Pairs))})
		}
	}
	return out, nil
}

// SFamily is an indexed family of structured automata — the objects
// Def 4.26 actually quantifies over (structured PSIOA/PCA *families*).
type SFamily func(k int) structured.SPSIOA

// AdvSimFamily is an adversary family paired with its simulator family
// (Def 4.26: "for every adversary family Adv ... there is an adversary
// family Sim ...").
type AdvSimFamily struct {
	// Adv and Sim produce the k-th adversary and simulator.
	Adv, Sim func(k int) psioa.PSIOA
	// Witness optionally produces the per-index constructive scheduler
	// correspondence.
	Witness func(k int) Witness
}

// FamilyEmulationReport aggregates per-index emulation reports.
type FamilyEmulationReport struct {
	// Holds reports whether every index passed.
	Holds bool
	// PerK maps the security parameter to its report.
	PerK map[int]*EmulationReport
}

// MaxDistFn returns k ↦ the largest per-adversary distance at index k, for
// comparison against a negligible function (the ≤_{neg,pt} form of
// Def 4.26).
func (r *FamilyEmulationReport) MaxDistFn() bounded.Fn {
	return func(k int) float64 {
		rep, ok := r.PerK[k]
		if !ok {
			return 0
		}
		dist := 0.0
		for _, pr := range rep.PerAdv {
			if pr.MaxDist > dist {
				dist = pr.MaxDist
			}
		}
		return dist
	}
}

// String summarises the report.
func (r *FamilyEmulationReport) String() string {
	return fmt.Sprintf("family secure-emulation holds=%v indices=%d", r.Holds, len(r.PerK))
}

// SecureEmulatesFamily checks Def 4.26 at the family level: for each k in
// [kmin, kmax], real(k) must securely emulate ideal(k) against every
// adversary/simulator family pair, with the per-index options (whose Eps
// should follow the intended negligible function).
func SecureEmulatesFamily(real, ideal SFamily, cases []AdvSimFamily, optFor func(k int) Options, kmin, kmax, limit int) (*FamilyEmulationReport, error) {
	per, holds, err := perIndex(kmin, kmax, func(k int) (*EmulationReport, error) {
		inst := make([]AdvSim, len(cases))
		for i, c := range cases {
			inst[i] = AdvSim{Adv: c.Adv(k), Sim: c.Sim(k)}
			if c.Witness != nil {
				inst[i].Witness = c.Witness(k)
			}
		}
		return SecureEmulates(real(k), ideal(k), inst, optFor(k), limit)
	})
	if err != nil {
		return nil, err
	}
	return &FamilyEmulationReport{Holds: holds, PerK: per}, nil
}

// NegPtEmulation checks that a family emulation report's measured distances
// are dominated by the given negligible function on [kmin, kmax] — the
// executable ≤_{neg,pt} conclusion of Def 4.26.
func NegPtEmulation(rep *FamilyEmulationReport, negl bounded.Fn, kmin, kmax int) error {
	return negBound("family emulation", rep.Holds, rep.MaxDistFn(), negl, kmin, kmax)
}

// ComposedSimulator implements the constructive step of Theorem 4.30: given
// the per-component dummy simulators DSim_i (each simulating the dummy
// adversary of component i against its ideal functionality), the renaming g
// of the composed system's adversary actions, and an adversary Adv for the
// composed real system, it builds
//
//	Sim = hide(DSim₁‖...‖DSim_b‖g(Adv), g(AAct_Â))
//
// — the simulator for the composed ideal system.
func ComposedSimulator(g map[psioa.Action]psioa.Action, dsims []psioa.PSIOA, adv psioa.PSIOA) (psioa.PSIOA, error) {
	gAdv := psioa.RenameMap(adv, g)
	comps := make([]psioa.PSIOA, 0, len(dsims)+1)
	comps = append(comps, dsims...)
	comps = append(comps, gAdv)
	inner, err := psioa.Compose(comps...)
	if err != nil {
		return nil, err
	}
	gAAct := psioa.NewActionSet()
	for _, fresh := range g {
		gAAct.Add(fresh)
	}
	return psioa.HideSet(inner, gAAct), nil
}

// DummyOf builds the dummy adversary of a structured automaton for the
// given renaming, as used by the Theorem 4.30 decomposition (the real
// system composed with its dummy is the canonical "most permissive"
// adversary interface).
func DummyOf(s structured.SPSIOA, g map[psioa.Action]psioa.Action, limit int) (*adversary.DummyAdv, error) {
	iface, err := adversary.InterfaceOf(s, limit)
	if err != nil {
		return nil, err
	}
	return adversary.Dummy("dummy("+s.ID()+")", iface, g)
}
