package psioa

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/intern"
	"repro/internal/obs"
)

// cComposeCalls counts compositions built; together with component counts
// it shows how much of a workload is product construction.
var (
	cComposeCalls      = obs.C("psioa.compose.calls")
	cComposeComponents = obs.C("psioa.compose.components")
)

// Product is the partial composition A₁‖...‖Aₙ of Def 2.18. Its states are
// canonical tuples of component states; its signature at a state is the
// signature composition of Def 2.4 (the components must be compatible there,
// Def 2.5); its transition measure is the product measure of Def 2.5, where
// components that do not participate in an action stay put (Dirac).
//
// Compose flattens nested products, so composition is associative on the
// nose: Compose(Compose(a,b),c), Compose(a,Compose(b,c)) and Compose(a,b,c)
// are literally the same automaton (same states, same measures). The
// composability proofs of Section 4 use this associativity freely.
//
// A type that embeds a Product (as the PCA and structured compositions
// of Defs 2.19 and 4.19 do) is that product as a PSIOA, so it shares the
// product's state table: walks, descriptions and fingerprints read it,
// and so does every product it is a component of (see sharedProduct).
type Product struct {
	id    string
	comps []PSIOA

	// The state table (prodtable.go) is the product's one per-state store:
	// component indexes, product states keyed by their component IDs,
	// shared signature entries and the transition measures Trans built.
	// It stays plain maps under one mutex on purpose: an exploration
	// inserts a state for nearly every one it visits, and for that
	// insert-heavy profile a snapshot-promoting read-mostly map
	// (intern.RM) pays O(n) copies over and over. The table lives exactly
	// as long as the product.
	mu      sync.Mutex
	tabs    []compTab
	states  []pstate
	byTuple map[string]uint32 // tuple key → state ID
	byState map[State]uint32  // encoding → state ID
	entries map[string]*sigEntry
	actIDs  map[Action]uint32
	actList []Action // by action ID
	// succ keeps the successor lists of (state ID<<32 | action ID) for the
	// products this one is a component of, directly or through a sharer.
	succ     map[uint64][]succ
	start    uint32
	hasStart bool
	// Scratch buffers of the table operations, guarded by mu.
	buf, sbuf, enc []byte
	parts          []string
	lists          [][]succ

	// The Keyed slot. keyMu is not mu: computing the key walks the
	// product, and the walk takes mu.
	keyMu sync.Mutex
	key   string
	keyOK bool
}

// Compose builds the partial composition of the given automata (Def 2.18).
// Arguments that are themselves Products are flattened into their
// components. Component identifiers must be pairwise distinct.
func Compose(auts ...PSIOA) (*Product, error) {
	if len(auts) == 0 {
		return nil, fmt.Errorf("psioa: Compose needs at least one automaton")
	}
	var comps []PSIOA
	for _, a := range auts {
		if p, ok := a.(*Product); ok {
			comps = append(comps, p.comps...)
		} else {
			comps = append(comps, a)
		}
	}
	// The interner's freshness bit is exactly the duplicate check: a
	// component ID that is not fresh was already seen.
	seen := intern.NewTable(len(comps))
	ids := make([]string, len(comps))
	for i, c := range comps {
		if _, fresh := seen.Intern(c.ID()); !fresh {
			return nil, fmt.Errorf("psioa: Compose: duplicate component identifier %q", c.ID())
		}
		ids[i] = c.ID()
	}
	cComposeCalls.Inc()
	cComposeComponents.Add(int64(len(comps)))
	tabs := make([]compTab, len(comps))
	for i, c := range comps {
		tabs[i] = newCompTab(c)
	}
	return &Product{
		id:      strings.Join(ids, "||"),
		comps:   comps,
		tabs:    tabs,
		byTuple: make(map[string]uint32),
		byState: make(map[State]uint32),
		entries: make(map[string]*sigEntry),
		actIDs:  make(map[Action]uint32),
	}, nil
}

// MustCompose is Compose that panics on error.
func MustCompose(auts ...PSIOA) *Product {
	p, err := Compose(auts...)
	if err != nil {
		panic(err)
	}
	return p
}

// ID implements PSIOA.
func (p *Product) ID() string { return p.id }

// sharedProduct returns the Product whose state table an automaton shares:
// walks, descriptions and fingerprints of the automaton read that table,
// and a product the automaton is a component of takes the automaton's
// successor lists from it instead of calling its Trans. A Product returns
// itself; Hidden and Atomic return what their inner automaton shares, or
// nil. Go promotes the method to every type that embeds one of the three,
// so such an embedder shares the table too. That holds only because an
// embedder may reclassify actions (as hiding does) but must not change
// the action set or the transitions; a wrapper that does (renaming,
// input enabling, instrumentation) must not embed one of them.
func (p *Product) sharedProduct() *Product { return p }

// Keyed returns the product's key, calling compute for it on the first call
// only; concurrent callers wait for that one computation. Only a success is
// kept: if compute errs or panics the slot stays empty and the next call
// computes again. compute runs under the slot's lock, so it must not call
// Keyed on p. The slot holds one key, the engine's fingerprint, so a
// product carries its own cache key and the key dies with it.
func (p *Product) Keyed(compute func() (string, error)) (string, error) {
	p.keyMu.Lock()
	defer p.keyMu.Unlock()
	if !p.keyOK {
		k, err := compute()
		if err != nil {
			return "", err
		}
		p.key, p.keyOK = k, true
	}
	return p.key, nil
}

// Components returns the (flattened) component automata.
func (p *Product) Components() []PSIOA { return p.comps }

// Start implements PSIOA: the tuple of component start states.
func (p *Product) Start() State { return p.stateQ(p.startID()) }

// Split decomposes a product state into component states.
func (p *Product) Split(q State) []State { return p.splitState(p.lookup(q)) }

// Join composes component states into a product state.
func (p *Product) Join(qs []State) State {
	if len(qs) != len(p.comps) {
		panic(fmt.Sprintf("psioa: product %q: Join got %d states, want %d", p.id, len(qs), len(p.comps)))
	}
	parts := make([]string, len(qs))
	for i, s := range qs {
		parts[i] = string(s)
	}
	return State(codec.EncodeTuple(parts))
}

// Project returns q↾Aᵢ, the i-th component of the product state.
func (p *Product) Project(q State, i int) State { return p.Split(q)[i] }

// ProjectID returns the component state of the component with the given
// identifier, and whether such a component exists.
func (p *Product) ProjectID(q State, id string) (State, bool) {
	qs := p.Split(q)
	for i, c := range p.comps {
		if c.ID() == id {
			return qs[i], true
		}
	}
	return "", false
}

// CompatAt reports whether the components are compatible at q (Def 2.5):
// their state signatures form a compatible set per Def 2.3, and every
// composite component is compatible at its own state.
func (p *Product) CompatAt(q State) error {
	if p.readyEntry(q) != nil {
		return nil
	}
	_, err := p.prepare(p.lookup(q))
	return err
}

// Sig implements PSIOA per Defs 2.4/2.5. It panics if the components are
// incompatible at q; use CompatAt (or Explore/Validate) to check
// compatibility without panicking.
func (p *Product) Sig(q State) Signature {
	if ent := p.readyEntry(q); ent != nil {
		return ent.sig
	}
	s, err := p.prepare(p.lookup(q))
	if err != nil {
		panic(err)
	}
	return s.ent.sig
}

// Trans implements PSIOA per Def 2.5: η_{(A,q,a)} = η₁ ⊗ ... ⊗ ηₙ with
// ηⱼ = η_{(Aⱼ,qⱼ,a)} when a is in Aⱼ's current signature and δ_{qⱼ}
// otherwise.
func (p *Product) Trans(q State, a Action) *Dist {
	p.mu.Lock()
	id, known := p.byState[q]
	aid, named := p.actIDs[a]
	if known && named {
		// A state has measures only once its signature entry is known.
		if s := &p.states[id]; s.trans != nil {
			if k := s.ent.pos(aid); k >= 0 && s.trans[k] != nil {
				d := s.trans[k]
				p.mu.Unlock()
				return d
			}
		}
	}
	p.mu.Unlock()
	if !known {
		id = p.lookup(q)
	}
	s, err := p.prepare(id)
	if err != nil {
		panic(err)
	}
	p.mu.Lock()
	aid, named = p.actIDs[a]
	p.mu.Unlock()
	k := -1
	if named {
		k = s.ent.pos(aid)
	}
	if k < 0 {
		disabledPanic(p.id, q, a)
	}
	return p.buildTrans(id, s, k)
}

// Atomic wraps an automaton so that Compose treats it as a single
// component even when it is itself a Product. Analyses that need to project
// a composite state onto a known pair — e.g. the adversary predicate, which
// inspects (q_A, q_Adv) — wrap their arguments in Atom so the flattening
// behaviour of Compose cannot regroup components underneath them.
type Atomic struct{ inner PSIOA }

// Atom wraps a to suppress composition flattening.
func Atom(a PSIOA) *Atomic { return &Atomic{inner: a} }

// ID implements PSIOA.
func (a *Atomic) ID() string { return a.inner.ID() }

// Inner returns the wrapped automaton.
func (a *Atomic) Inner() PSIOA { return a.inner }

// Start implements PSIOA.
func (a *Atomic) Start() State { return a.inner.Start() }

// Sig implements PSIOA.
func (a *Atomic) Sig(q State) Signature { return a.inner.Sig(q) }

// Trans implements PSIOA.
func (a *Atomic) Trans(q State, act Action) *Dist { return a.inner.Trans(q, act) }

func (a *Atomic) sharedProduct() *Product { return productOf(a.inner) }

// CompatAt delegates compatibility checking.
func (a *Atomic) CompatAt(q State) error {
	if cc, ok := a.inner.(compatAtChecker); ok {
		return cc.CompatAt(q)
	}
	return nil
}
