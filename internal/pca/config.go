// Package pca implements configurations and probabilistic configuration
// automata (Section 2.5–2.6): configurations of automata with their current
// states (Def 2.9), reduction (Def 2.12), preserving and intrinsic
// transitions with dynamic creation and destruction (Defs 2.13–2.14), the
// PCA structure with its four constraints (Def 2.16), PCA hiding (Def 2.17)
// and PCA composition (Def 2.19).
package pca

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/measure"
	"repro/internal/psioa"
)

// Registry is the mapping aut : Autids → Auts from identifiers to automata.
// Dynamic creation instantiates automata by identifier through a registry.
type Registry interface {
	Lookup(id string) (psioa.PSIOA, bool)
}

// MapRegistry is a Registry backed by a map.
type MapRegistry map[string]psioa.PSIOA

// Lookup implements Registry.
func (m MapRegistry) Lookup(id string) (psioa.PSIOA, bool) {
	a, ok := m[id]
	return a, ok
}

// Register adds automata to the registry keyed by their own identifiers.
func (m MapRegistry) Register(auts ...psioa.PSIOA) MapRegistry {
	for _, a := range auts {
		m[a.ID()] = a
	}
	return m
}

// Config is a configuration (A, S) (Def 2.9): a finite set of PSIOA
// identifiers together with a current state for each. Configs are
// immutable; operations return new configurations.
type Config struct {
	states map[string]psioa.State
}

// NewConfig builds a configuration from an id → state map.
func NewConfig(states map[string]psioa.State) *Config {
	cp := make(map[string]psioa.State, len(states))
	for id, q := range states {
		cp[id] = q
	}
	return &Config{states: cp}
}

// EmptyConfig returns the configuration with no automata.
func EmptyConfig() *Config { return &Config{states: map[string]psioa.State{}} }

// Auts returns auts(C): the automaton identifiers, sorted.
func (c *Config) Auts() []string {
	ids := make([]string, 0, len(c.states))
	for id := range c.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns |auts(C)|.
func (c *Config) Len() int { return len(c.states) }

// Has reports whether the automaton with the given id is in the
// configuration.
func (c *Config) Has(id string) bool {
	_, ok := c.states[id]
	return ok
}

// StateOf returns map(C)(id), the current state of the identified automaton.
func (c *Config) StateOf(id string) (psioa.State, bool) {
	q, ok := c.states[id]
	return q, ok
}

// With returns a copy of c with the automaton id set to state q.
func (c *Config) With(id string, q psioa.State) *Config {
	cp := NewConfig(c.states)
	cp.states[id] = q
	return cp
}

// Without returns a copy of c with the automaton id removed.
func (c *Config) Without(id string) *Config {
	cp := NewConfig(c.states)
	delete(cp.states, id)
	return cp
}

// Key returns the canonical injective encoding of the configuration —
// the ⟨C⟩ of Section 4 — usable as a PCA state.
func (c *Config) Key() string {
	m := make(map[string]string, len(c.states))
	for id, q := range c.states {
		m[id] = string(q)
	}
	return codec.EncodePairs(m)
}

// FromKey decodes a configuration key produced by Key.
func FromKey(key string) (*Config, error) {
	m, err := codec.DecodePairs(key)
	if err != nil {
		return nil, err
	}
	states := make(map[string]psioa.State, len(m))
	for id, q := range m {
		states[id] = psioa.State(q)
	}
	return &Config{states: states}, nil
}

// signatures returns the constituents' identifiers (sorted, as Auts),
// automata and signatures at the configuration's states, in that order.
func (c *Config) signatures(reg Registry) ([]string, []psioa.PSIOA, []psioa.Signature, error) {
	ids := c.Auts()
	auts := make([]psioa.PSIOA, len(ids))
	sigs := make([]psioa.Signature, len(ids))
	for i, id := range ids {
		a, ok := reg.Lookup(id)
		if !ok {
			return nil, nil, nil, fmt.Errorf("pca: automaton %q not in registry", id)
		}
		auts[i], sigs[i] = a, a.Sig(c.states[id])
	}
	return ids, auts, sigs, nil
}

// Compatible checks Def 2.10: the automata are compatible at the
// configuration's states (their signatures form a compatible set).
func (c *Config) Compatible(reg Registry) error {
	ids, _, sigs, err := c.signatures(reg)
	if err != nil {
		return err
	}
	return compatible(ids, sigs)
}

// compatible is Compatible on signatures already looked up.
func compatible(ids []string, sigs []psioa.Signature) error {
	if err := psioa.CompatibleSignatures(sigs); err != nil {
		return fmt.Errorf("pca: configuration %v incompatible: %w", ids, err)
	}
	return nil
}

// Sig returns the intrinsic signature sig(C) of Def 2.11:
// out = ∪ out_i, int = ∪ int_i, in = (∪ in_i) \ out.
func (c *Config) Sig(reg Registry) (psioa.Signature, error) {
	_, _, sigs, err := c.signatures(reg)
	if err != nil {
		return psioa.Signature{}, err
	}
	return psioa.ComposeSignatures(sigs), nil
}

// Reduce implements Def 2.12: drop the automata whose current signature is
// empty (the destruction mechanism).
func (c *Config) Reduce(reg Registry) (*Config, error) {
	ids, _, sigs, err := c.signatures(reg)
	if err != nil {
		return nil, err
	}
	out := EmptyConfig()
	for i, id := range ids {
		if !sigs[i].IsEmpty() {
			out.states[id] = c.states[id]
		}
	}
	return out, nil
}

// IsReduced reports whether C = reduce(C): no signature in C is empty.
func (c *Config) IsReduced(reg Registry) (bool, error) {
	_, _, sigs, err := c.signatures(reg)
	if err != nil {
		return false, err
	}
	return !slices.ContainsFunc(sigs, psioa.Signature.IsEmpty), nil
}

// Equal reports whether two configurations have the same automata in the
// same states.
func (c *Config) Equal(d *Config) bool { return c.Key() == d.Key() }

// String renders the configuration deterministically.
func (c *Config) String() string {
	s := "{"
	for i, id := range c.Auts() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%s", id, c.states[id])
	}
	return s + "}"
}

// PreservingTrans implements Def 2.13: the probabilistic transition
// C --a⇀ η_p in which no automaton is created or destroyed. Every
// constituent with a in its current signature moves according to its own
// transition measure; the others stay put. The result is a distribution
// over configuration keys (all with the same automaton set).
func PreservingTrans(reg Registry, c *Config, a psioa.Action) (*measure.Dist[string], error) {
	return successors[string](reg, c, a, nil, false)
}

// IntrinsicTrans implements Def 2.14: the dynamic transition
// (A,S) ==a=>_φ η in which the automata of φ are created (at their start
// states, with probability 1) and automata whose signatures become empty
// are destroyed via reduction. c must be reduced and compatible, and
// φ ∩ auts(C) = ∅.
func IntrinsicTrans(reg Registry, c *Config, a psioa.Action, created []string) (*measure.Dist[string], error) {
	return successors[string](reg, c, a, created, true)
}

// successors is the kernel of PreservingTrans and, when intrinsic, of
// IntrinsicTrans: it checks their preconditions in that order, then
// builds the measure over the successors' keys. Each constituent with a
// in its signature moves by its transition measure, masses multiplying
// in constituent order as in measure.ProductN; the others stay put. An
// intrinsic successor also holds the created automata at their starts and
// drops those with an empty signature (Def 2.12), which, as c is reduced,
// only automata that moved or were created can have.
func successors[K ~string](reg Registry, c *Config, a psioa.Action, created []string, intrinsic bool) (*measure.Dist[K], error) {
	ids, auts, sigs, err := c.signatures(reg)
	if err != nil {
		return nil, err
	}
	if intrinsic && slices.ContainsFunc(sigs, psioa.Signature.IsEmpty) {
		return nil, fmt.Errorf("pca: intrinsic transition from non-reduced configuration %v", c)
	}
	for _, id := range created {
		if c.Has(id) {
			return nil, fmt.Errorf("pca: created set contains %q which is already in the configuration (φ ∩ A must be empty)", id)
		}
		if _, ok := reg.Lookup(id); !ok {
			return nil, fmt.Errorf("pca: created automaton %q not in registry", id)
		}
	}
	if err := compatible(ids, sigs); err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(sigs, func(s psioa.Signature) bool { return s.Has(a) }) {
		return nil, fmt.Errorf("pca: action %q not in sig(C) for C=%v", a, c)
	}
	// A slot is one automaton of the successors, with its choices of
	// EncodePairs entry and mass, and whether reduction drops it there.
	type choice struct {
		entry string
		p     float64
		gone  bool
	}
	type slot struct {
		id      string
		choices []choice
	}
	slots := make([]slot, 0, len(ids)+len(created))
	add := func(id string, aut psioa.PSIOA, qs []psioa.State, ps []float64, moved bool) {
		s := slot{id: id}
		for k, q := range qs {
			if ps[k] > 0 {
				gone := moved && intrinsic && aut.Sig(q).IsEmpty()
				s.choices = append(s.choices, choice{codec.EncodeTuple([]string{id, string(q)}), ps[k], gone})
			}
		}
		slots = append(slots, s)
	}
	for _, id := range created {
		aut, _ := reg.Lookup(id)
		add(id, aut, []psioa.State{aut.Start()}, []float64{1}, true)
	}
	for i, id := range ids {
		if q := c.states[id]; sigs[i].Has(a) {
			qs, ps := auts[i].Trans(q, a).SupportAndProbs()
			add(id, auts[i], qs, ps, true)
		} else {
			add(id, auts[i], []psioa.State{q}, []float64{1}, false)
		}
	}
	// Key order; creating an automaton twice creates it once.
	slices.SortFunc(slots, func(x, y slot) int { return strings.Compare(x.id, y.id) })
	slots = slices.CompactFunc(slots, func(x, y slot) bool { return x.id == y.id })
	out, entries := measure.New[K](), make([]string, 0, len(slots))
	var walk func(i int, p float64)
	walk = func(i int, p float64) {
		if i == len(slots) {
			out.Add(K(codec.EncodeTuple(entries)), p)
			return
		}
		for _, ch := range slots[i].choices {
			n := len(entries)
			if !ch.gone {
				entries = append(entries, ch.entry)
			}
			walk(i+1, p*ch.p)
			entries = entries[:n]
		}
	}
	walk(0, 1)
	return out, nil
}
