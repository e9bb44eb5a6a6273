package psioa

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/intern"
	"repro/internal/measure"
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
type Product struct {
	id    string
	comps []PSIOA

	// Per-product caches stay mutex-guarded plain maps on purpose: an
	// exploration sweep inserts a fresh entry for nearly every state it
	// visits, and for that insert-heavy profile a snapshot-promoting
	// read-mostly map (intern.RM) pays O(n) copies over and over — the
	// shared *bounded* memo tables (sortcache, choicecache) are where RM
	// earns its keep. The transition cache stays two chained string-keyed
	// maps rather than one struct-keyed map: string keys get the runtime's
	// faststr map path, which a composite struct key forfeits. Values are
	// immutable once stored.
	mu         sync.Mutex
	sigCache   map[State]Signature
	compatOK   map[State]bool
	transCache map[State]map[Action]*Dist
	splitCache map[State][]State
	// spare is the enumerator Trans reuses: callers that build every
	// transition of a state in a row (Validate, fingerprinting) then look
	// the state up once. A concurrent Trans that finds it taken uses a
	// fresh one.
	spare *prodEnum
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
	return &Product{
		id:         strings.Join(ids, "||"),
		comps:      comps,
		sigCache:   make(map[State]Signature),
		compatOK:   make(map[State]bool),
		transCache: make(map[State]map[Action]*Dist),
		splitCache: make(map[State][]State),
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

// Components returns the (flattened) component automata.
func (p *Product) Components() []PSIOA { return p.comps }

// Start implements PSIOA: the tuple of component start states.
func (p *Product) Start() State {
	parts := make([]string, len(p.comps))
	for i, c := range p.comps {
		parts[i] = string(c.Start())
	}
	return State(codec.EncodeTuple(parts))
}

// Split decomposes a product state into component states.
func (p *Product) Split(q State) []State {
	p.mu.Lock()
	if cached, ok := p.splitCache[q]; ok {
		p.mu.Unlock()
		return cached
	}
	p.mu.Unlock()
	parts, err := codec.DecodeTuple(string(q))
	if err != nil || len(parts) != len(p.comps) {
		panic(fmt.Sprintf("psioa: product %q: malformed state %q", p.id, q))
	}
	out := make([]State, len(parts))
	for i, s := range parts {
		out[i] = State(s)
	}
	p.mu.Lock()
	p.splitCache[q] = out
	p.mu.Unlock()
	return out
}

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
// their state signatures form a compatible set per Def 2.3.
func (p *Product) CompatAt(q State) error {
	p.mu.Lock()
	if p.compatOK[q] {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	qs := p.Split(q)
	sigs := make([]Signature, len(qs))
	for i, c := range p.comps {
		sigs[i] = c.Sig(qs[i])
	}
	if err := CompatibleSignatures(sigs); err != nil {
		return fmt.Errorf("psioa: product %q incompatible at state %q: %w", p.id, q, err)
	}
	// Propagate into composite components (e.g. nested hides over products).
	for i, c := range p.comps {
		if cc, ok := c.(compatAtChecker); ok {
			if err := cc.CompatAt(qs[i]); err != nil {
				return err
			}
		}
	}
	p.mu.Lock()
	p.compatOK[q] = true
	p.mu.Unlock()
	return nil
}

// Sig implements PSIOA per Defs 2.4/2.5. It panics if the components are
// incompatible at q; use CompatAt (or Explore/Validate) to check
// compatibility without panicking.
func (p *Product) Sig(q State) Signature {
	p.mu.Lock()
	if sig, ok := p.sigCache[q]; ok {
		p.mu.Unlock()
		return sig
	}
	p.mu.Unlock()

	if err := p.CompatAt(q); err != nil {
		panic(err)
	}
	qs := p.Split(q)
	sigs := make([]Signature, len(qs))
	for i, c := range p.comps {
		sigs[i] = c.Sig(qs[i])
	}
	sig := ComposeSignatures(sigs)

	p.mu.Lock()
	p.sigCache[q] = sig
	p.mu.Unlock()
	return sig
}

// Trans implements PSIOA per Def 2.5: η_{(A,q,a)} = η₁ ⊗ ... ⊗ ηₙ with
// ηⱼ = η_{(Aⱼ,qⱼ,a)} when a is in Aⱼ's current signature and δ_{qⱼ}
// otherwise.
func (p *Product) Trans(q State, a Action) *Dist {
	p.mu.Lock()
	if d := p.transCache[q][a]; d != nil {
		p.mu.Unlock()
		return d
	}
	e := p.spare
	p.spare = nil
	p.mu.Unlock()
	if e == nil {
		e = &prodEnum{}
		e.emit = e.add
	}
	d := measure.New[State]()
	e.dist = d
	p.enumerate(e, q, a)
	e.dist = nil
	p.mu.Lock()
	m := p.transCache[q]
	if m == nil {
		m = make(map[Action]*Dist)
		p.transCache[q] = m
	}
	m[a] = d
	p.spare = e
	p.mu.Unlock()
	return d
}

// cachedTrans returns the transition measure of (q, a) if Trans has already
// built it, and nil otherwise.
func (p *Product) cachedTrans(q State, a Action) *Dist {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.transCache[q][a]
}

// prodEnum is the scratch space of one enumeration of a product
// transition's support: per component, its signature at the current state
// and its factor, plus the component states of the tuple being built and
// its encoding. It keeps what enumerate looked up about the last state it
// saw, so a walk that enumerates every action of a state looks the state
// up once. Trans reuses the product's spare one; Explore's walk has its own
// for its whole BFS.
type prodEnum struct {
	q     State     // the state sig, qs and comps describe (valid if qs != nil)
	sig   Signature // the product's signature at q
	qs    []State   // q split into component states
	comps []prodComp
	parts []string
	buf   []byte
	// emit receives each support element's tuple encoding, valid only
	// until emit returns, with its product mass.
	emit func(enc []byte, pr float64)
	dist *Dist // the measure Trans is building (see add)
}

// add is Trans's emit: it adds a support element to the measure.
func (e *prodEnum) add(enc []byte, pr float64) { e.dist.Add(State(enc), pr) }

// prodComp is one component's slot in a prodEnum: its signature at the
// current state, and its transition measure if it participates in the
// action being enumerated (nil if it stays put).
type prodComp struct {
	sig    Signature
	factor *Dist
}

// enumerate is the one product enumerator behind Trans and Explore's walk:
// it calls e.emit for every element of the support of η_{(P,q,a)} (Def 2.5)
// without building the measure. Non-participating components stay put
// (Dirac), so they contribute a fixed tuple slot instead of a factor, and
// participating factors are consumed in place. Every tuple combination is
// emitted exactly once; combinations whose mass multiplies out to zero are
// skipped, as measure.Dist.Add skips them.
func (p *Product) enumerate(e *prodEnum, q State, a Action) {
	if e.qs == nil || e.q != q {
		e.q, e.sig, e.qs = q, p.Sig(q), p.Split(q)
		if len(e.comps) != len(p.comps) {
			e.comps = make([]prodComp, len(p.comps))
			e.parts = make([]string, len(p.comps))
		}
		for i, c := range p.comps {
			e.comps[i].sig = c.Sig(e.qs[i])
		}
	}
	if !e.sig.Has(a) {
		disabledPanic(p.id, q, a)
	}
	for i, c := range p.comps {
		e.comps[i].factor = nil
		e.parts[i] = string(e.qs[i])
		if e.comps[i].sig.Has(a) {
			e.comps[i].factor = c.Trans(e.qs[i], a)
		}
	}
	e.rec(0, 1)
}

func (e *prodEnum) rec(i int, pr float64) {
	if i == len(e.comps) {
		if pr != 0 {
			e.buf = codec.AppendTuple(e.buf[:0], e.parts...)
			e.emit(e.buf, pr)
		}
		return
	}
	if e.comps[i].factor == nil {
		e.rec(i+1, pr)
		return
	}
	// The factor's sorted view is built once per measure and iterated as
	// slices, which costs far less than ranging over its weight map.
	xs, ps := e.comps[i].factor.SupportAndProbs()
	for j, x := range xs {
		if !(ps[j] > 0) { // ForEach's filter
			continue
		}
		e.parts[i] = string(x)
		e.rec(i+1, pr*ps[j])
	}
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

// CompatAt delegates compatibility checking.
func (a *Atomic) CompatAt(q State) error {
	if cc, ok := a.inner.(compatAtChecker); ok {
		return cc.CompatAt(q)
	}
	return nil
}
