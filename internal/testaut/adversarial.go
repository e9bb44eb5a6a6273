package testaut

import (
	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/rng"
)

// AdversarialNames are state and action names chosen so that escaping,
// prefixes and separator-adjacent bytes all decide some comparison of
// fragment keys: names where one is a prefix of the other (x1/x10), names
// holding the tuple separator or the escape byte, the empty-tuple
// sentinel, the empty name, and bytes on either side of '|'.
func AdversarialNames() []string {
	return []string{
		"x1", "x10", "x1|0", "x1|", "x", "", "()", "(", "|", "||", `\`, `x\`,
		`\|`, "x1 ", " ", "*", "x*", "}", "~", "x~", "é", "x1é", "0",
	}
}

// AdversarialAut builds a random PSIOA over AdversarialNames. Every state
// enables one to three locally controlled actions; each transition has one
// to three successors, and one in five carries a branch of mass 1e-16,
// which the measure kernels prune.
func AdversarialAut(seed uint64) *psioa.Table {
	r := rng.New(seed)
	rnd := func(n int) int { return int(r.Uint64() % uint64(n)) }
	names := AdversarialNames()
	perm := func() {
		for i := len(names) - 1; i > 0; i-- {
			j := rnd(i + 1)
			names[i], names[j] = names[j], names[i]
		}
	}
	perm()
	states := make([]psioa.State, 6+rnd(6))
	for i := range states {
		states[i] = psioa.State(names[i])
	}
	perm()
	acts := make([]psioa.Action, 3+rnd(4))
	for i := range acts {
		acts[i] = psioa.Action(names[i])
	}
	b := psioa.NewBuilder("adv", states[0])
	for _, q := range states {
		var out, internal []psioa.Action
		trans := map[psioa.Action]*psioa.Dist{}
		for n := 1 + rnd(3); n > 0; n-- {
			a := acts[rnd(len(acts))]
			if trans[a] != nil {
				continue
			}
			if rnd(2) == 0 {
				out = append(out, a)
			} else {
				internal = append(internal, a)
			}
			d := measure.New[psioa.State]()
			rest := 1.0
			if rnd(5) == 0 {
				d.Add(states[rnd(len(states))], 1e-16)
			}
			for k := 1 + rnd(3); k > 0; k-- {
				p := rest
				if k > 1 {
					p = rest * float64(1+rnd(9)) / 10
				}
				d.Add(states[rnd(len(states))], p)
				rest -= p
			}
			trans[a] = d
		}
		b.AddState(q, psioa.NewSignature(nil, out, internal))
		for a, d := range trans {
			b.AddTrans(q, a, d)
		}
	}
	return b.MustBuild()
}

// RandomSig draws each of six actions into each of in, out and int
// independently, so the sets overlap about as often as not: a signature
// that may break Def 2.1's disjointness, for code that only reads one.
func RandomSig(seed uint64) psioa.Signature {
	r := rng.New(seed)
	var parts [3][]psioa.Action
	for _, act := range []psioa.Action{"a0", "a1", "b", "b0", "c", "z"} {
		for i := range parts {
			if r.Uint64()%3 == 0 {
				parts[i] = append(parts[i], act)
			}
		}
	}
	return psioa.NewSignature(parts[0], parts[1], parts[2])
}

// SigAut is a one-state automaton with a fixed signature, which may break
// Def 2.1's disjointness; every action loops. Schedulers only read its
// signature.
type SigAut struct{ S psioa.Signature }

func (a SigAut) ID() string                                      { return "sig" }
func (a SigAut) Start() psioa.State                              { return "q" }
func (a SigAut) Sig(psioa.State) psioa.Signature                 { return a.S }
func (a SigAut) Trans(q psioa.State, _ psioa.Action) *psioa.Dist { return measure.Dirac(q) }
