package core

import (
	"fmt"

	"repro/internal/bounded"
	"repro/internal/psioa"
)

// FamilyOptions configures a family-level implementation check
// (Def 4.12's family form): per-index environments, bounds and tolerance.
type FamilyOptions struct {
	// OptionsFor returns the per-index check options; Eps should follow
	// ε(k), Q1/Q2 the polynomial bounds q₁(k), q₂(k).
	OptionsFor func(k int) Options
	// Kmin and Kmax delimit the checked range of the security parameter.
	Kmin, Kmax int
}

// FamilyReport records per-index implementation reports.
type FamilyReport struct {
	// Holds reports whether every index passed.
	Holds bool
	// PerK maps the security parameter to its report.
	PerK map[int]*Report
}

// MaxDistFn returns k ↦ MaxDist(k), for comparison against a negligible
// function.
func (r *FamilyReport) MaxDistFn() bounded.Fn {
	return func(k int) float64 {
		if rep, ok := r.PerK[k]; ok {
			return rep.MaxDist
		}
		return 0
	}
}

// String summarises the report.
func (r *FamilyReport) String() string {
	return fmt.Sprintf("family holds=%v indices=%d", r.Holds, len(r.PerK))
}

// FamilyImplements checks A_k ≤^{Sch,f}_{q1(k),q2(k),ε(k)} B_k for every k
// in [Kmin, Kmax] (Def 4.12 extended to families).
func FamilyImplements(fa, fb bounded.Family, fopt FamilyOptions) (*FamilyReport, error) {
	per, holds, err := perIndex(fopt.Kmin, fopt.Kmax, func(k int) (*Report, error) {
		return Implements(fa(k), fb(k), fopt.OptionsFor(k))
	})
	if err != nil {
		return nil, err
	}
	return &FamilyReport{Holds: holds, PerK: per}, nil
}

// FamilyImplementsWitness is FamilyImplements with per-index constructive
// witnesses.
func FamilyImplementsWitness(fa, fb bounded.Family, w func(k int) Witness, fopt FamilyOptions) (*FamilyReport, error) {
	per, holds, err := perIndex(fopt.Kmin, fopt.Kmax, func(k int) (*Report, error) {
		return ImplementsWitness(fa(k), fb(k), w(k), fopt.OptionsFor(k))
	})
	if err != nil {
		return nil, err
	}
	return &FamilyReport{Holds: holds, PerK: per}, nil
}

// perIndex runs check at every index k in [kmin, kmax] and returns its
// reports by k, and whether every one holds. The first error stops it,
// wrapped with its index.
func perIndex[R interface{ held() bool }](kmin, kmax int, check func(k int) (R, error)) (map[int]R, bool, error) {
	per, holds := make(map[int]R), true
	for k := kmin; k <= kmax; k++ {
		rep, err := check(k)
		if err != nil {
			return nil, false, fmt.Errorf("core: family index %d: %w", k, err)
		}
		per[k] = rep
		holds = holds && rep.held()
	}
	return per, holds, nil
}

func (r *Report) held() bool          { return r.Holds }
func (r *EmulationReport) held() bool { return r.Holds }

// NegPt checks the ≤_{neg,pt} form on a finite range: the family check must
// hold with a tolerance ε(k) that is dominated by the given negligible
// function, i.e. the measured per-index distances satisfy
// MaxDist(k) ≤ negl(k) for all k in range.
func NegPt(rep *FamilyReport, negl bounded.Fn, kmin, kmax int) error {
	return negBound("family relation", rep.Holds, rep.MaxDistFn(), negl, kmin, kmax)
}

// negBound is the ≤_{neg,pt} check of NegPt and NegPtEmulation: the
// family relation holds, and dist(k) ≤ negl(k) for every k in
// [kmin, kmax] (an index without a report has distance 0).
func negBound(what string, holds bool, dist, negl bounded.Fn, kmin, kmax int) error {
	if !holds {
		return fmt.Errorf("core: %s: %w", what, ErrDoesNotHold)
	}
	for k := kmin; k <= kmax; k++ {
		if d := dist(k); d > negl(k)+1e-12 {
			return fmt.Errorf("core: index %d: distance %v exceeds negligible bound %v: %w", k, d, negl(k), ErrExceedsNegligible)
		}
	}
	return nil
}

// ContextFamily lifts a family pointwise into a context (Lemma 4.14 /
// Theorem 4.15): (A₃‖A)_k = A₃_k ‖ A_k.
func ContextFamily(ctx, f bounded.Family) bounded.Family {
	return func(k int) psioa.PSIOA {
		return psioa.MustCompose(ctx(k), f(k))
	}
}
