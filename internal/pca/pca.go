package pca

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/psioa"
)

// cConfigDecodes counts configuration decodes, i.e. misses of the
// ConfigAutomaton state memo; hits are not counted.
var cConfigDecodes = obs.C("pca.config.decodes")

// PCA is a probabilistic configuration automaton (Def 2.16): a PSIOA whose
// states are linked to reduced compatible configurations, together with a
// creation mapping and a hidden-actions mapping.
type PCA interface {
	psioa.PSIOA
	// Config returns config(X)(q), the reduced compatible configuration
	// linked to state q.
	Config(q psioa.State) *Config
	// Created returns created(X)(q)(a), the identifiers created by action a
	// at state q.
	Created(q psioa.State, a psioa.Action) []string
	// HiddenActions returns hidden-actions(X)(q) ⊆ out(config(X)(q)).
	HiddenActions(q psioa.State) psioa.ActionSet
	// Registry returns the identifier → automaton mapping in scope for this
	// PCA's configurations.
	Registry() Registry
}

// ConfigAutomaton is the standard PCA constructor: a PCA whose states *are*
// canonical configuration encodings, whose transitions are exactly the
// intrinsic transitions of Def 2.14, and whose hiding/creation mappings are
// supplied as functions of the decoded configuration. By construction it
// satisfies PCA constraints 1–4 of Def 2.16 (config is the identity-like
// decoding, so the top/down and bottom/up simulations are equalities);
// Validate/ValidatePCA re-check this mechanically.
//
// Every state is decoded once: the first query on a state q builds its
// memo entry (configuration, hidden actions, signature, compatibility), and
// the first Trans/Created on (q, a) fills that entry's slot for a. Later
// queries are lookups. The memo lives as long as the automaton, so the
// registry and the creation/hiding mappings must not change after New —
// the same immutability the package already assumes of every value it
// hands out.
type ConfigAutomaton struct {
	id    string
	reg   Registry
	start psioa.State
	// createdFn maps (configuration, action) to the created identifiers;
	// nil means nothing is ever created.
	createdFn func(c *Config, a psioa.Action) []string
	// hiddenFn maps a configuration to the outputs hidden at that state;
	// nil means nothing is hidden.
	hiddenFn func(c *Config) psioa.ActionSet

	// memo maps each well-formed state queried so far to its entry. A
	// product's state table asks a component once per component state;
	// the reads come from walks over the PCA itself (bounded.Describe,
	// bounded.QueryWork, fingerprinting). Reads outnumber inserts by
	// about three orders of magnitude (E2: 532,092 reads for 420
	// inserts), so the read-mostly map's lock-free snapshot hits fit.
	memo *intern.RM[psioa.State, *stateMemo]
}

// stateMemo is what a ConfigAutomaton derives from one state. Entries are
// shared by every caller and never change after publication, except for
// the write-once slots.
type stateMemo struct {
	cfg    *Config
	hidden psioa.ActionSet
	sig    psioa.Signature
	// acts is sig.All() sorted; slots[i] belongs to acts[i].
	acts  []psioa.Action
	slots []actMemo
	// sigErr and compatErr say why the state is ill-formed; an entry with
	// either set is never stored.
	sigErr, compatErr error
}

// actMemo holds created(X)(q)(a) and the transition on a, each stored once
// built. Racing first builders store equal values, so a lost store is
// harmless and reads need no lock.
type actMemo struct {
	created atomic.Pointer[[]string]
	trans   atomic.Pointer[psioa.Dist]
}

// slot returns the memo slot of action a, or nil when a is not enabled.
func (m *stateMemo) slot(a psioa.Action) *actMemo {
	i, ok := slices.BinarySearch(m.acts, a)
	if !ok {
		return nil
	}
	return &m.slots[i]
}

// Option customises a ConfigAutomaton.
type Option func(*ConfigAutomaton)

// WithCreated installs the creation mapping.
func WithCreated(f func(c *Config, a psioa.Action) []string) Option {
	return func(x *ConfigAutomaton) { x.createdFn = f }
}

// WithHidden installs the hidden-actions mapping.
func WithHidden(f func(c *Config) psioa.ActionSet) Option {
	return func(x *ConfigAutomaton) { x.hiddenFn = f }
}

// New builds a ConfigAutomaton with the given initial configuration. The
// initial configuration must be compatible and reduced, and — per PCA
// constraint 1 (start states preservation) — every constituent must be at
// its own start state.
func New(id string, reg Registry, init *Config, opts ...Option) (*ConfigAutomaton, error) {
	if err := init.Compatible(reg); err != nil {
		return nil, err
	}
	reduced, err := init.IsReduced(reg)
	if err != nil {
		return nil, err
	}
	if !reduced {
		return nil, fmt.Errorf("pca: initial configuration %v is not reduced", init)
	}
	for _, id2 := range init.Auts() {
		aut, ok := reg.Lookup(id2)
		if !ok {
			return nil, fmt.Errorf("pca: automaton %q not in registry", id2)
		}
		q, _ := init.StateOf(id2)
		if q != aut.Start() {
			return nil, fmt.Errorf("pca: constraint 1 violated: %q starts at %q, configuration has %q", id2, aut.Start(), q)
		}
	}
	x := &ConfigAutomaton{
		id:    id,
		reg:   reg,
		start: psioa.State(init.Key()),
		memo:  intern.NewRM[psioa.State, *stateMemo](0),
	}
	for _, o := range opts {
		o(x)
	}
	return x, nil
}

// validationPanic marks a panic raised because a PCA is ill-formed (a
// state that does not decode to a configuration, a signature or intrinsic
// transition error, a configuration collision in a product). ValidatePCA
// converts exactly these into validation errors; any other panic is a
// genuine bug and propagates.
type validationPanic struct{ msg string }

func (v validationPanic) String() string { return v.msg }

// invalidf panics with a validationPanic.
func invalidf(format string, args ...any) {
	panic(validationPanic{msg: fmt.Sprintf(format, args...)})
}

// MustNew is New that panics on error.
func MustNew(id string, reg Registry, init *Config, opts ...Option) *ConfigAutomaton {
	x, err := New(id, reg, init, opts...)
	if err != nil {
		panic(err)
	}
	return x
}

// ID implements PSIOA.
func (x *ConfigAutomaton) ID() string { return x.id }

// Registry implements PCA.
func (x *ConfigAutomaton) Registry() Registry { return x.reg }

// Start implements PSIOA.
func (x *ConfigAutomaton) Start() psioa.State { return x.start }

// state returns q's memo entry, decoding q on first touch. A state whose
// signature or compatibility check fails gets a fresh, unstored entry on
// every query, so failures are recomputed and re-reported rather than
// remembered. A state that is not a configuration key panics and stores
// nothing.
func (x *ConfigAutomaton) state(q psioa.State) *stateMemo {
	if m, ok := x.memo.Get(q); ok {
		return m
	}
	cConfigDecodes.Inc()
	c, err := FromKey(string(q))
	if err != nil {
		invalidf("pca: %q: state %q is not a configuration key: %v", x.id, q, err)
	}
	m := &stateMemo{cfg: c, hidden: psioa.NewActionSet()}
	if x.hiddenFn != nil {
		m.hidden = x.hiddenFn(c)
	}
	ids, _, sigs, err := c.signatures(x.reg)
	if err != nil {
		m.sigErr, m.compatErr = err, err
		return m
	}
	m.sig = psioa.HideSignature(psioa.ComposeSignatures(sigs), m.hidden)
	m.acts = m.sig.All().Sorted()
	m.slots = make([]actMemo, len(m.acts))
	if m.compatErr = compatible(ids, sigs); m.compatErr == nil {
		x.memo.Set(q, m)
	}
	return m
}

// Config implements PCA: states are configuration keys.
func (x *ConfigAutomaton) Config(q psioa.State) *Config { return x.state(q).cfg }

// HiddenActions implements PCA.
func (x *ConfigAutomaton) HiddenActions(q psioa.State) psioa.ActionSet {
	return x.state(q).hidden
}

// Created implements PCA.
func (x *ConfigAutomaton) Created(q psioa.State, a psioa.Action) []string {
	return x.created(x.state(q), a)
}

// created returns created(X)(q)(a) for q's entry m, memoized when a is
// enabled at q.
func (x *ConfigAutomaton) created(m *stateMemo, a psioa.Action) []string {
	if x.createdFn == nil {
		return nil
	}
	s := m.slot(a)
	if s == nil {
		return x.createdFn(m.cfg, a)
	}
	if ids := s.created.Load(); ids != nil {
		return *ids
	}
	ids := x.createdFn(m.cfg, a)
	s.created.Store(&ids)
	return ids
}

// Sig implements PSIOA per PCA constraint 4:
// sig(X)(q) = hide(sig(config(X)(q)), hidden-actions(X)(q)).
func (x *ConfigAutomaton) Sig(q psioa.State) psioa.Signature {
	return x.sigState(q).sig
}

// sigState is state(q) for callers that need the signature: a signature
// failure makes the PCA ill-formed at q.
func (x *ConfigAutomaton) sigState(q psioa.State) *stateMemo {
	m := x.state(q)
	if m.sigErr != nil {
		invalidf("pca: %q: signature of %q: %v", x.id, q, m.sigErr)
	}
	return m
}

// CompatAt reports configuration compatibility at q.
func (x *ConfigAutomaton) CompatAt(q psioa.State) error { return x.state(q).compatErr }

// Trans implements PSIOA: the intrinsic transition of Def 2.14 with
// φ = created(X)(q)(a), transported along the configuration encoding (the
// top/down simulation of constraint 2 holds definitionally).
func (x *ConfigAutomaton) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	m := x.sigState(q)
	s := m.slot(a)
	if s == nil {
		panic(fmt.Sprintf("pca: %q: action %q not enabled at %q", x.id, a, q))
	}
	if d := s.trans.Load(); d != nil {
		return d
	}
	out, err := successors[psioa.State](x.reg, m.cfg, a, x.created(m, a), true)
	if err != nil {
		invalidf("pca: %q: intrinsic transition at %q on %q: %v", x.id, q, a, err)
	}
	s.trans.Store(out)
	return out
}
