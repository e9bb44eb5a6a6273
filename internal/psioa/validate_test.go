package psioa_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// refValidate is Validate as it was before it became one Walk: explore,
// then read each reachable state's signature and every transition measure
// through Trans. It tries a state's actions in sorted order, where that
// version tried them in map order, so with several failing actions it
// names the least, as Validate does.
func refValidate(a psioa.PSIOA, limit int) error {
	ex, err := psioa.Explore(a, limit)
	if err != nil {
		return err
	}
	for _, q := range ex.States {
		sig := ex.Sigs[q]
		if err := sig.CheckDisjoint(); err != nil {
			return fmt.Errorf("psioa: %q state %q: %w", a.ID(), q, err)
		}
		for _, act := range psioa.SortedAll(sig) {
			if d := a.Trans(q, act); !d.IsProb() {
				return fmt.Errorf("psioa: %q transition (%q,%q): total mass %v, want 1", a.ID(), q, act, d.Total())
			}
		}
	}
	return nil
}

// skewed is the automaton it wraps with the masses of some transitions,
// those whose state and action names have lengths of even sum, multiplied
// by f.
type skewed struct {
	psioa.PSIOA
	f float64
}

func (s skewed) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	d := s.PSIOA.Trans(q, a)
	if (len(q)+len(a))%2 != 0 {
		return d
	}
	out := measure.New[psioa.State]()
	qs, ps := d.SupportAndProbs()
	for i, q2 := range qs {
		out.Add(q2, ps[i]*s.f)
	}
	return out
}

// overlapping is the automaton it wraps with, at states whose names have
// even length, its least action also internal: an input or output that is
// internal too breaks Def 2.1's disjointness.
type overlapping struct{ psioa.PSIOA }

func (o overlapping) Sig(q psioa.State) psioa.Signature {
	sig := o.PSIOA.Sig(q)
	if acts := psioa.SortedAll(sig); len(q)%2 == 0 && len(acts) > 0 {
		sig = sig.Copy()
		sig.Int.Add(acts[0])
	}
	return sig
}

// FuzzValidateWalk holds Validate equal to refValidate, verdict and error
// text, on fresh worlds: a testaut world with a component y that is
// faulty (masses scaled, overlapping signatures, or an output n0 that
// clashes with v's), alone, composed with the world, hidden, or nested
// under Atomic. Validate must build no product measure.
func FuzzValidateWalk(f *testing.F) {
	worlds := testaut.SyncWorlds()
	factors := []float64{0.5, 1.25, 0, math.NaN(), 1 + 1e-12, 1 + 1e-8}
	f.Fuzz(func(t *testing.T, world uint8, seed uint64, fault uint8, limit uint16) {
		w := worlds[int(world)%len(worlds)]
		mode := int(fault>>2) % 4
		mk := func() psioa.PSIOA {
			out := []psioa.Action{"q0"}
			if fault%4 == 3 {
				out = []psioa.Action{"n0"}
			}
			var y psioa.PSIOA = testaut.SyncAut("y", out, []psioa.Action{"m1", "o0"}, seed+1)
			switch fault % 4 {
			case 1:
				y = skewed{y, factors[int(fault>>4)%len(factors)]}
			case 2:
				y = overlapping{y}
			}
			switch mode {
			case 0:
				return y
			case 1:
				return psioa.MustCompose(y, w.Make(seed))
			case 2:
				return psioa.HideSet(psioa.MustCompose(y, w.Make(seed)), psioa.NewActionSet("q0", "n0"))
			}
			z := testaut.SyncAut("z", []psioa.Action{"r0"}, []psioa.Action{"q0"}, seed+2)
			return psioa.MustCompose(z, psioa.Atom(psioa.MustCompose(y, w.Make(seed))))
		}
		n := 1 + int(limit)%300
		what := fmt.Sprintf("%s/seed=%d/fault=%d/mode=%d/limit=%d", w.Name, seed, fault, mode, n)
		want := refValidate(mk(), n)
		a := mk()
		got := psioa.Validate(a, n)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Validate = %v, reference = %v", what, got, want)
		}
		noProductMeasures(t, what, a)
	})
}

// TestWalksComposeNothing: fingerprinting, validating and computing the
// oblivious alphabet of a fresh two-component world read the product's
// table only: they compose no entry signature and build no measure.
func TestWalksComposeNothing(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := psioa.MustCompose(
			testaut.SyncAut("u", []psioa.Action{"m0", "m1"}, []psioa.Action{"n0"}, 2*seed),
			testaut.SyncAut("v", []psioa.Action{"n0"}, []psioa.Action{"m0", "m1"}, 2*seed+1))
		if _, err := engine.Fingerprint(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := psioa.Validate(p, 1000); err != nil {
			t.Fatal(err)
		}
		if _, err := (&sched.ObliviousSchema{}).Enumerate(p, 2); err != nil {
			t.Fatal(err)
		}
		entries, composed := p.SigEntries()
		if entries == 0 || composed != 0 || p.TransCacheLen() != 0 {
			t.Errorf("seed %d: %d of %d entry signatures composed, %d measures built; want none", seed, composed, entries, p.TransCacheLen())
		}
	}
}
