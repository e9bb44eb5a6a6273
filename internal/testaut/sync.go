package testaut

import (
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/rng"
)

// SyncAut generates a random automaton that outputs only from out and
// takes inputs only from in, with one private internal action. Components
// with disjoint out sets are compatible everywhere, and they synchronise
// wherever one's output is another's current input. State names contain
// the tuple codec's separator, its escape and its empty-tuple sentinel, so
// product states exercise every escape path.
func SyncAut(id string, out, in []psioa.Action, seed uint64) *psioa.Table {
	r := rng.New(seed)
	pick := func(n int) int { return int(r.Uint64() % uint64(n)) }
	states := []psioa.State{"()", "s|1", `s\2`, "s3", `|\|`}
	acts := append(append([]psioa.Action{psioa.Action("int_" + id)}, out...), in...)
	b := psioa.NewBuilder(id, states[0])
	for _, q := range states {
		var sig [3][]psioa.Action
		var enabled []psioa.Action
		for k, a := range acts {
			if pick(2) == 0 {
				continue
			}
			role := 2 // internal
			if k > len(out) {
				role = 0
			} else if k > 0 {
				role = 1
			}
			sig[role] = append(sig[role], a)
			enabled = append(enabled, a)
		}
		b.AddState(q, psioa.NewSignature(sig[0], sig[1], sig[2]))
		for _, a := range enabled {
			d := measure.New[psioa.State]()
			mass := 1.0
			for j := pick(3); j > 0; j-- {
				mass /= 2
				d.Add(states[pick(len(states))], mass)
			}
			d.Add(states[pick(len(states))], mass)
			b.AddTrans(q, a, d)
		}
	}
	return b.MustBuild()
}

// SyncWorld is a family of generated worlds of SyncAut components, one
// world per seed; the tests walk seeds 1 to Seeds.
type SyncWorld struct {
	Name  string
	Seeds uint64
	Make  func(seed uint64) psioa.PSIOA
}

// SyncWorlds returns the generated worlds. The first three are u‖v‖w,
// bare, hidden, and with u‖v under Atomic. The others nest a product under
// Hidden and Atomic wrappers: x‖hide(u‖v), x‖Atom(hide(u‖v)‖w), and
// x‖hide_q(u‖v), whose hidden set depends on the state.
func SyncWorlds() []SyncWorld {
	m := []psioa.Action{"m0", "m1"}
	n := []psioa.Action{"n0", "n1"}
	o := []psioa.Action{"o0"}
	hidden := psioa.NewActionSet("m0", "n1")
	uvw := func(seed uint64) (u, v, w *psioa.Table) {
		return SyncAut("u", m, append(n, o...), 3*seed), SyncAut("v", n, append(m, o...), 3*seed+1), SyncAut("w", o, m, 3*seed+2)
	}
	uv := func(seed uint64) *psioa.Product {
		return psioa.MustCompose(SyncAut("u", m, append(n, o...), 4*seed), SyncAut("v", n, append(m, o...), 4*seed+1))
	}
	x := func(seed uint64) *psioa.Table { return SyncAut("x", o, []psioa.Action{"m1", "n0"}, 4*seed+2) }
	return []SyncWorld{
		{"u||v||w", 12, func(seed uint64) psioa.PSIOA {
			u, v, w := uvw(seed)
			return psioa.MustCompose(u, v, w)
		}},
		{"hide(u||v||w)", 12, func(seed uint64) psioa.PSIOA {
			u, v, w := uvw(seed)
			return psioa.HideSet(psioa.MustCompose(u, v, w), hidden)
		}},
		{"Atom(u||v)||w", 12, func(seed uint64) psioa.PSIOA {
			u, v, w := uvw(seed)
			return psioa.MustCompose(psioa.Atom(psioa.MustCompose(u, v)), w)
		}},
		{"x||hide(u||v)", 8, func(seed uint64) psioa.PSIOA {
			return psioa.MustCompose(x(seed), psioa.HideSet(uv(seed), hidden))
		}},
		{"x||Atom(hide(u||v)||w)", 8, func(seed uint64) psioa.PSIOA {
			w := SyncAut("w", []psioa.Action{"p0"}, o, 4*seed+3)
			return psioa.MustCompose(x(seed), psioa.Atom(psioa.MustCompose(psioa.HideSet(uv(seed), hidden), w)))
		}},
		{"x||hide_q(u||v)", 8, func(seed uint64) psioa.PSIOA {
			// m0 is hidden at states whose encoding has even length, n1
			// at the others.
			return psioa.MustCompose(x(seed), psioa.Hide(uv(seed), func(q psioa.State) psioa.ActionSet {
				if len(q)%2 == 0 {
					return psioa.NewActionSet("m0")
				}
				return psioa.NewActionSet("n1")
			}))
		}},
	}
}
