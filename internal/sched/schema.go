package sched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/intern"
	"repro/internal/psioa"
)

// Schema is a scheduler schema (Def 3.2): a map from automata to sets of
// schedulers. Since the full set is uncountable, schemas here are
// *enumerable*: they produce the finite subset of schedulers used by the
// exhaustive implementation checkers. The constructive parts of the
// framework (witness functions, Forward^s, the composability
// constructions) do not need enumeration and accept arbitrary schedulers.
type Schema interface {
	// Name identifies the schema in reports.
	Name() string
	// Enumerate returns the schema's schedulers for automaton a, restricted
	// to bound-bounded ones.
	Enumerate(a psioa.PSIOA, bound int) ([]Scheduler, error)
}

// ObliviousSchema enumerates all deterministic off-line schedulers
// (Sequence) over the reachable action alphabet of the automaton, with
// sequence length up to the bound. This is the "oblivious scheduler" schema
// of §4.4: choices depend only on the step index, never on the state, so a
// scheduler of this schema is trivially creation-oblivious as well.
//
// The enumeration is exponential in the bound; MaxCount caps it (an error
// is returned when the cap would be exceeded, so checks never silently
// under-cover). So is the alphabet: a world with more than alphabetLimit
// reachable states is an error too, since actions first enabled past the
// limit would be missing from every sequence. The schedulers fire locally
// controlled actions only: in a closed environment‖system world a
// scheduler injecting phantom inputs can fake any perception, which
// trivialises implementation checks.
type ObliviousSchema struct {
	// MaxCount caps the number of enumerated schedulers (default 100000).
	MaxCount int
}

// alphabetLimit bounds the reachability analysis by which ObliviousSchema
// discovers the action alphabet.
const alphabetLimit = 10000

// Name implements Schema.
func (o *ObliviousSchema) Name() string { return "oblivious" }

// Enumerate implements Schema.
func (o *ObliviousSchema) Enumerate(a psioa.PSIOA, bound int) ([]Scheduler, error) {
	maxCount := o.MaxCount
	if maxCount == 0 {
		maxCount = 100000
	}
	// The alphabet is the walk's Acts; its visitor keeps nothing else.
	ex, err := psioa.Walk(nil, a, alphabetLimit, nil, psioa.StateFunc(func(uint32, psioa.State, []psioa.Action, []psioa.Role) {}))
	if err != nil {
		return nil, err
	}
	if ex.Truncated {
		return nil, fmt.Errorf("sched: oblivious alphabet of %q: more than %d reachable states: %w", a.ID(), alphabetLimit, ErrEnumerationCap)
	}
	alpha := ex.Acts.Sorted()
	// Count Σ_{l=0..bound} |alpha|^l against the cap before materialising.
	total, pow := 0, 1
	for l := 0; l <= bound; l++ {
		total += pow
		if total > maxCount {
			return nil, fmt.Errorf("sched: oblivious enumeration over %d actions up to length %d exceeds cap %d: %w", len(alpha), bound, maxCount, ErrEnumerationCap)
		}
		pow *= len(alpha)
		if len(alpha) == 0 {
			break
		}
	}
	var out []Scheduler
	var rec func(prefix []psioa.Action)
	rec = func(prefix []psioa.Action) {
		seq := append([]psioa.Action(nil), prefix...)
		out = append(out, &Sequence{A: a, Acts: seq, LocalOnly: true})
		if len(prefix) == bound {
			return
		}
		for _, act := range alpha {
			rec(append(prefix, act))
		}
	}
	rec(nil)
	return out, nil
}

// FixedSchema is an explicit finite schema: a fixed list of schedulers per
// automaton identifier (falling back to Default for unknown automata).
// PerAut is declarative configuration; the first Enumerate freezes it into
// an interned index (automaton ID -> dense slot), so the exhaustive
// checkers' per-automaton lookups stop re-hashing identifier strings.
// Mutating PerAut after the first Enumerate has no effect.
type FixedSchema struct {
	ID      string
	PerAut  map[string][]Scheduler
	Default func(a psioa.PSIOA, bound int) []Scheduler

	once  sync.Once
	idx   *intern.Table
	byIdx [][]Scheduler
}

// Name implements Schema.
func (f *FixedSchema) Name() string { return f.ID }

// index builds (once) the interned per-automaton lookup, in sorted ID
// order so slot assignment is deterministic.
func (f *FixedSchema) index() {
	f.once.Do(func() {
		ids := make([]string, 0, len(f.PerAut))
		for id := range f.PerAut {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		f.idx = intern.NewTable(len(ids))
		f.byIdx = make([][]Scheduler, 0, len(ids))
		for _, id := range ids {
			f.idx.Intern(id)
			f.byIdx = append(f.byIdx, f.PerAut[id])
		}
	})
}

// Enumerate implements Schema.
func (f *FixedSchema) Enumerate(a psioa.PSIOA, bound int) ([]Scheduler, error) {
	f.index()
	if slot, ok := f.idx.Lookup(a.ID()); ok {
		return f.byIdx[slot], nil
	}
	if f.Default != nil {
		return f.Default(a, bound), nil
	}
	return nil, nil
}

// PrefixPrioritySchema enumerates deterministic run-to-completion
// schedulers, one Priority per template. A template is an ordered list of
// action-name prefixes, which becomes the scheduler's Order unchanged: at
// each state the scheduler fires the least enabled action with the first
// entry that matches one, and actions matching no entry are never
// scheduled. Ranking happens at choice time, so enumeration never walks
// the automaton. All schedulers are locally controlled and bound-bounded.
//
// This is the pragmatic schema for protocol-sized systems, where the fully
// oblivious enumeration explodes: each template expresses one adversarial
// strategy ("deliver first", "block before delivery", ...), and the
// exhaustive checker quantifies over all of them on both sides.
type PrefixPrioritySchema struct {
	Templates [][]string
}

// Name implements Schema.
func (p *PrefixPrioritySchema) Name() string { return "prefix-priority" }

// Enumerate implements Schema.
func (p *PrefixPrioritySchema) Enumerate(a psioa.PSIOA, bound int) ([]Scheduler, error) {
	out := make([]Scheduler, 0, len(p.Templates))
	for _, tmpl := range p.Templates {
		order := make([]psioa.Action, len(tmpl))
		for i, prefix := range tmpl {
			order[i] = psioa.Action(prefix)
		}
		out = append(out, &Priority{A: a, Order: order, Bound: bound, LocalOnly: true})
	}
	return out, nil
}

// BasicSchema returns the pragmatic default schema used by the examples:
// one uniform random scheduler and one greedy scheduler, both bound-bounded.
type BasicSchema struct{}

// Name implements Schema.
func (BasicSchema) Name() string { return "basic" }

// Enumerate implements Schema.
func (BasicSchema) Enumerate(a psioa.PSIOA, bound int) ([]Scheduler, error) {
	return []Scheduler{
		&Random{A: a, Bound: bound, LocalOnly: true},
		&Greedy{A: a, Bound: bound, LocalOnly: true},
	}, nil
}
