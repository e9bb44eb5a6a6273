package psioa

import (
	"fmt"

	"repro/internal/measure"
)

// Table is an explicit finite PSIOA: states, signatures and transition
// measures are stored in maps. It is the workhorse for the worked examples
// and for exhaustive checking of the implementation relations.
type Table struct {
	id    string
	start State
	sigs  map[State]Signature
	trans map[State]map[Action]*Dist
}

// ID implements PSIOA.
func (t *Table) ID() string { return t.id }

// Start implements PSIOA.
func (t *Table) Start() State { return t.start }

// Sig implements PSIOA.
func (t *Table) Sig(q State) Signature {
	sig, ok := t.sigs[q]
	if !ok {
		panic(fmt.Sprintf("psioa: automaton %q: unknown state %q", t.id, q))
	}
	return sig
}

// Trans implements PSIOA.
func (t *Table) Trans(q State, a Action) *Dist {
	if !t.Sig(q).Has(a) {
		disabledPanic(t.id, q, a)
	}
	return t.trans[q][a]
}

// States returns all declared states (not only reachable ones).
func (t *Table) States() []State {
	out := make([]State, 0, len(t.sigs))
	for q := range t.sigs {
		out = append(out, q)
	}
	return out
}

// Builder assembles a Table and validates the PSIOA constraints of Def 2.1
// at Build time.
type Builder struct {
	id    string
	start State
	sigs  map[State]Signature
	trans map[State]map[Action]*Dist
	errs  []error
}

// NewBuilder starts building an automaton with the given identifier and
// start state.
func NewBuilder(id string, start State) *Builder {
	return &Builder{
		id:    id,
		start: start,
		sigs:  make(map[State]Signature),
		trans: make(map[State]map[Action]*Dist),
	}
}

// AddState declares a state with its signature.
func (b *Builder) AddState(q State, sig Signature) *Builder {
	if _, dup := b.sigs[q]; dup {
		b.errs = append(b.errs, fmt.Errorf("psioa: duplicate state %q", q))
		return b
	}
	b.sigs[q] = sig
	b.trans[q] = make(map[Action]*Dist)
	return b
}

// AddTrans declares the transition measure for (q, a). Per Def 2.1 there is
// exactly one measure per enabled (q, a) pair.
func (b *Builder) AddTrans(q State, a Action, d *Dist) *Builder {
	m, ok := b.trans[q]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("psioa: transition from undeclared state %q", q))
		return b
	}
	if _, dup := m[a]; dup {
		b.errs = append(b.errs, fmt.Errorf("psioa: duplicate transition (%q, %q)", q, a))
		return b
	}
	m[a] = d
	return b
}

// AddDet declares a deterministic (Dirac) transition q --a--> q′.
func (b *Builder) AddDet(q State, a Action, to State) *Builder {
	return b.AddTrans(q, a, measure.Dirac(to))
}

// AddCoin declares a fair binary probabilistic transition.
func (b *Builder) AddCoin(q State, a Action, heads, tails State) *Builder {
	d := measure.New[State]()
	d.Add(heads, 0.5)
	d.Add(tails, 0.5)
	return b.AddTrans(q, a, d)
}

// Build validates and returns the automaton. Checks performed:
// start state declared; signatures mutually disjoint; every signature action
// has exactly one transition (E1); no transition for actions outside the
// signature; transition measures are probability measures whose supports are
// declared states.
func (b *Builder) Build() (*Table, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if _, ok := b.sigs[b.start]; !ok {
		return nil, fmt.Errorf("psioa: automaton %q: start state %q not declared", b.id, b.start)
	}
	for q, sig := range b.sigs {
		if err := sig.CheckDisjoint(); err != nil {
			return nil, fmt.Errorf("psioa: automaton %q state %q: %w", b.id, q, err)
		}
		for _, set := range [...]ActionSet{sig.In, sig.Out, sig.Int} {
			for a := range set {
				d, ok := b.trans[q][a]
				if !ok {
					return nil, fmt.Errorf("psioa: automaton %q: action %q enabled at %q has no transition (violates E1)", b.id, a, q)
				}
				if !d.IsProb() {
					return nil, fmt.Errorf("psioa: automaton %q: transition (%q,%q) has total mass %v, want 1", b.id, q, a, d.Total())
				}
				for _, q2 := range d.Support() {
					if _, ok := b.sigs[q2]; !ok {
						return nil, fmt.Errorf("psioa: automaton %q: transition (%q,%q) targets undeclared state %q", b.id, q, a, q2)
					}
				}
			}
		}
		for a := range b.trans[q] {
			if !sig.Has(a) {
				return nil, fmt.Errorf("psioa: automaton %q: transition for %q at %q but the action is not in the signature", b.id, a, q)
			}
		}
	}
	return &Table{id: b.id, start: b.start, sigs: b.sigs, trans: b.trans}, nil
}

// MustBuild is Build that panics on error, for statically-correct automata
// in tests and examples.
func (b *Builder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
