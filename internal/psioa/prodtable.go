package psioa

import (
	"fmt"
	"hash/maphash"
	"slices"

	"repro/internal/codec"
	"repro/internal/measure"
)

// The state table of a Product. A product state is the tuple of its
// components' states (Def 2.18), so the table keys it by the tuple of
// dense per-component state IDs, and what Defs 2.4 and 2.5 derive from
// the components is computed once per component state:
//
//   - each component has a State↔ID index, a content-interned signature
//     ID per component state, and per (component state, action) its
//     successor list as (ID, mass), built from the component's transition
//     measure once;
//   - a product state is the fixed-width tuple of its component IDs. Its
//     canonical encoding (the codec tuple of the component states) is
//     built once, when the state is first discovered;
//   - the product signature, its sorted action list, the participants of
//     each action and the compatibility verdict of Def 2.3 depend only on
//     the component signatures (Def 2.4), so they live in one sigEntry
//     shared by every product state with the same tuple of component
//     signature IDs. Each component signature is sorted once, when it
//     is interned, and an entry's sorted actions merge those lists, so
//     no product state sorts its signature again.
//
// A component that shares a product's table (Product.sharedProduct) is
// indexed by that product's state IDs, and its successor lists come from
// that product's table, which keeps them for every product it is a
// component of: walking a nested world builds no nested transition
// measure.
//
// Every field is guarded by the product's mutex, and no pointer into the
// table is kept across an unlock. Component methods (Sig, Trans, CompatAt)
// run with the mutex released, so a component may take its time or panic
// without blocking or wedging the table. A table operation may read a
// nested product's table while holding the mutex; products nest without
// cycles, so the locks are always taken outer before inner.

// pstate is one product state.
type pstate struct {
	q     State     // canonical tuple encoding
	key   string    // component state IDs, 4 little-endian bytes each
	ent   *sigEntry // set once the components are known compatible at q
	trans []*Dist   // per ent.acts index: the measure Trans built
}

// sigEntry is what a product derives from one tuple of component
// signatures.
type sigEntry struct {
	err   error     // CompatibleSignatures' verdict (Def 2.3); nil: compatible
	sig   Signature // Def 2.4 composition (compatible entries only)
	acts  []Action  // SortedAll(sig)
	actID []uint32  // product-wide ID of acts[k]
	// part[off[k]:off[k+1]] are the components whose signature has acts[k].
	part []int32
	off  []int32
}

// parts returns the components that participate in acts[k].
func (e *sigEntry) parts(k int) []int32 { return e.part[e.off[k]:e.off[k+1]] }

// pos returns the position of the action with ID aid in acts, or -1.
func (e *sigEntry) pos(aid uint32) int { return slices.Index(e.actID, aid) }

// compTab indexes one component's states.
type compTab struct {
	c PSIOA
	// inner is the product c shares states and transitions with, if any:
	// then component state IDs are inner's state IDs, successor lists come
	// from inner, and innerAct maps this product's action IDs to inner's
	// (ID+1; 0 until known).
	inner    *Product
	innerAct []uint32
	check    compatAtChecker // c's own CompatAt (components without inner)
	ids      map[State]uint32
	cs       []cstate // by component state ID
	sigs     []Signature
	sorted   [][]Action // SortedAll(sigs[i])
	// sigHead maps a content hash to the first signature ID+1 with it;
	// sigNext chains signature IDs with equal hashes.
	sigHead map[uint64]int32
	sigNext []int32
	succ    map[uint64][]succ // (state ID<<32 | action ID) → successors
}

// cstate is one component state. Components with an inner product use
// only sig; their states live in inner's table.
type cstate struct {
	q   State
	sig int32 // signature ID + 1; 0 until computed
	ok  bool  // check passed at q
}

// succ is one element of a successor list: a state ID and its mass.
type succ struct {
	id uint32
	p  float64
}

func newCompTab(c PSIOA) compTab {
	t := compTab{c: c, inner: productOf(c), sigHead: make(map[uint64]int32)}
	if t.inner == nil {
		t.ids = make(map[State]uint32)
		t.succ = make(map[uint64][]succ)
		t.check, _ = c.(compatAtChecker)
	}
	return t
}

// idAt reads the i-th component ID of a tuple key.
func idAt[K string | []byte](key K, i int) uint32 {
	return uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
}

// putID writes id as the i-th component ID of a tuple key.
func putID(key []byte, i int, id uint32) {
	key[4*i], key[4*i+1], key[4*i+2], key[4*i+3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
}

// internLocked returns the ID of component state q, adding it if new.
func (t *compTab) internLocked(q State) uint32 {
	if id, ok := t.ids[q]; ok {
		return id
	}
	id := uint32(len(t.cs))
	t.cs = append(t.cs, cstate{q: q})
	t.ids[q] = id
	return id
}

// csLocked returns the entry of component state id, growing an
// inner-indexed table as needed.
func (t *compTab) csLocked(id uint32) *cstate {
	for int(id) >= len(t.cs) {
		t.cs = append(t.cs, cstate{})
	}
	return &t.cs[id]
}

// stateLocked returns component state id.
func (t *compTab) stateLocked(id uint32) State {
	if t.inner != nil {
		return t.inner.stateQ(id)
	}
	return t.cs[id].q
}

// internSigLocked returns the content-interned ID of sig, whose content
// hash is h.
func (t *compTab) internSigLocked(sig Signature, h uint64) int32 {
	for s := t.sigHead[h]; s != 0; s = t.sigNext[s-1] {
		if t.sigs[s-1].Equal(sig) {
			return s - 1
		}
	}
	id := int32(len(t.sigs))
	t.sigs = append(t.sigs, sig)
	t.sorted = append(t.sorted, SortedAll(sig))
	t.sigNext = append(t.sigNext, t.sigHead[h])
	t.sigHead[h] = id + 1
	return id
}

var sigSeed = maphash.MakeSeed()

// sigHash hashes a signature's content independently of set iteration
// order: a sum of mixed per-(action, role) hashes.
func sigHash(sig Signature) uint64 {
	var h uint64
	for role, s := range [3]ActionSet{sig.In, sig.Out, sig.Int} {
		for a := range s {
			x := maphash.String(sigSeed, string(a)) + uint64(role+1)*0x9e3779b97f4a7c15
			x ^= x >> 31
			x *= 0xbf58476d1ce4e5b9
			h += x ^ x>>29
		}
	}
	return h
}

// stateQ returns the encoding of state id.
func (p *Product) stateQ(id uint32) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.states[id].q
}

// addLocked appends a product state with the given tuple key and encoding.
func (p *Product) addLocked(key string, q State) uint32 {
	id := uint32(len(p.states))
	p.states = append(p.states, pstate{q: q, key: key})
	p.byTuple[key] = id
	p.byState[q] = id
	return id
}

// idLocked returns the ID of the product state with the given tuple key,
// adding it — and encoding it, the only time it is encoded — if new.
func (p *Product) idLocked(key []byte) uint32 {
	if id, ok := p.byTuple[string(key)]; ok {
		return id
	}
	parts := p.parts[:0]
	for i := range p.tabs {
		parts = append(parts, string(p.tabs[i].stateLocked(idAt(key, i))))
	}
	p.parts = parts
	// The key and the encoding share one allocation.
	p.enc = codec.AppendTuple(append(p.enc[:0], key...), parts...)
	both := string(p.enc)
	return p.addLocked(both[:len(key)], State(both[len(key):]))
}

// lookup returns the ID of product state q, adding it if new. It panics
// if q is not an encoded tuple of len(p.comps) component states.
func (p *Product) lookup(q State) uint32 {
	p.mu.Lock()
	id, ok := p.byState[q]
	p.mu.Unlock()
	if ok {
		return id
	}
	parts, err := codec.DecodeTuple(string(q))
	if err != nil || len(parts) != len(p.comps) {
		panic(fmt.Sprintf("psioa: product %q: malformed state %q", p.id, q))
	}
	key := make([]byte, 4*len(parts))
	for i := range p.tabs {
		if in := p.tabs[i].inner; in != nil {
			putID(key, i, in.lookup(State(parts[i])))
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.tabs {
		if t := &p.tabs[i]; t.inner == nil {
			putID(key, i, t.internLocked(State(parts[i])))
		}
	}
	if id, ok := p.byTuple[string(key)]; ok {
		p.byState[q] = id
		return id
	}
	return p.addLocked(string(key), q)
}

// startID returns the ID of the start state.
func (p *Product) startID() uint32 {
	p.mu.Lock()
	id, ok := p.start, p.hasStart
	p.mu.Unlock()
	if ok {
		return id
	}
	key := make([]byte, 4*len(p.tabs))
	starts := make([]State, len(p.tabs))
	for i := range p.tabs {
		if in := p.tabs[i].inner; in != nil {
			putID(key, i, in.startID())
		} else {
			starts[i] = p.comps[i].Start()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.tabs {
		if t := &p.tabs[i]; t.inner == nil {
			putID(key, i, t.internLocked(starts[i]))
		}
	}
	p.start, p.hasStart = p.idLocked(key), true
	return p.start
}

// readyEntry returns the signature entry of state q if it is known.
func (p *Product) readyEntry(q State) *sigEntry {
	p.mu.Lock()
	var ent *sigEntry
	if id, ok := p.byState[q]; ok {
		ent = p.states[id].ent
	}
	p.mu.Unlock()
	return ent
}

// prepare checks that the components are compatible at state id (Def 2.5)
// and returns the state with its signature entry. The checks report what
// CompatAt always has, in its order: a nested product's incompatibility
// when the component's signature is read (component order), then the
// component signatures (Def 2.3), then each component's own CompatAt.
func (p *Product) prepare(id uint32) (pstate, error) {
	p.mu.Lock()
	s := p.states[id]
	p.mu.Unlock()
	if s.ent != nil {
		return s, nil
	}
	var arr [8]int32
	sigIDs := arr[:0]
	for i := range p.tabs {
		sid, err := p.compSig(i, idAt(s.key, i))
		if err != nil {
			return s, err
		}
		sigIDs = append(sigIDs, sid)
	}
	ent := p.entry(sigIDs)
	if ent.err != nil {
		return s, fmt.Errorf("psioa: product %q incompatible at state %q: %w", p.id, s.q, ent.err)
	}
	for i := range p.tabs {
		if p.tabs[i].check != nil {
			if err := p.compCheck(i, idAt(s.key, i)); err != nil {
				return s, err
			}
		}
	}
	p.mu.Lock()
	p.states[id].ent = ent
	p.mu.Unlock()
	s.ent = ent
	return s, nil
}

// compSig returns the signature ID of component i at state cid, or the
// incompatibility of the nested product the component shares states with.
func (p *Product) compSig(i int, cid uint32) (int32, error) {
	t := &p.tabs[i]
	p.mu.Lock()
	sid := t.csLocked(cid).sig
	p.mu.Unlock()
	if sid != 0 {
		return sid - 1, nil
	}
	var q State
	if t.inner != nil {
		s, err := t.inner.prepare(cid)
		if err != nil {
			return 0, err
		}
		q = s.q
	} else {
		p.mu.Lock()
		q = t.cs[cid].q
		p.mu.Unlock()
	}
	sig := t.c.Sig(q)
	h := sigHash(sig)
	p.mu.Lock()
	defer p.mu.Unlock()
	sid = t.internSigLocked(sig, h) + 1
	t.cs[cid].sig = sid
	return sid - 1, nil
}

// compCheck runs component i's own CompatAt at state cid until it passes.
func (p *Product) compCheck(i int, cid uint32) error {
	t := &p.tabs[i]
	p.mu.Lock()
	c := t.cs[cid]
	p.mu.Unlock()
	if c.ok {
		return nil
	}
	if err := t.check.CompatAt(c.q); err != nil {
		return err
	}
	p.mu.Lock()
	t.cs[cid].ok = true
	p.mu.Unlock()
	return nil
}

// entry returns the shared entry of a tuple of component signature IDs.
func (p *Product) entry(sigIDs []int32) *sigEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := p.sbuf[:0]
	for _, s := range sigIDs {
		key = append(key, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	p.sbuf = key
	if e := p.entries[string(key)]; e != nil {
		return e
	}
	sigs := make([]Signature, len(sigIDs))
	for i, s := range sigIDs {
		sigs[i] = p.tabs[i].sigs[s]
	}
	e := &sigEntry{err: CompatibleSignatures(sigs)}
	if e.err == nil {
		e.sig = ComposeSignatures(sigs)
		p.mergeActsLocked(e, sigIDs)
	}
	p.entries[string(key)] = e
	return e
}

// mergeActsLocked fills e's sorted actions, their IDs and participants by
// merging the components' sorted action lists.
func (p *Product) mergeActsLocked(e *sigEntry, sigIDs []int32) {
	var arr [8][]Action
	heads := arr[:0]
	n := 0
	for i, s := range sigIDs {
		heads = append(heads, p.tabs[i].sorted[s])
		n += len(heads[i])
	}
	// Every component action is one participant; shared actions make the
	// distinct count smaller than n.
	e.part = make([]int32, 0, n)
	e.acts = make([]Action, 0, n)
	e.actID = make([]uint32, 0, n)
	e.off = append(make([]int32, 0, n+1), 0)
	for {
		var next Action
		found := false
		for _, h := range heads {
			if len(h) > 0 && (!found || h[0] < next) {
				next, found = h[0], true
			}
		}
		if !found {
			return
		}
		for j, h := range heads {
			if len(h) > 0 && h[0] == next {
				e.part = append(e.part, int32(j))
				heads[j] = h[1:]
			}
		}
		aid, ok := p.actIDs[next]
		if !ok {
			aid = uint32(len(p.actList))
			p.actIDs[next] = aid
			p.actList = append(p.actList, next)
		}
		e.acts = append(e.acts, next)
		e.actID = append(e.actID, aid)
		e.off = append(e.off, int32(len(e.part)))
	}
}

// compSucc returns the successor list of component i at state cid under
// action a (this product's action ID aid).
func (p *Product) compSucc(i int, cid uint32, a Action, aid uint32) []succ {
	t := &p.tabs[i]
	if t.inner != nil {
		p.mu.Lock()
		ia := p.innerActLocked(t, aid)
		p.mu.Unlock()
		return t.inner.succOf(cid, ia)
	}
	sk := uint64(cid)<<32 | uint64(aid)
	p.mu.Lock()
	l, ok := t.succ[sk]
	q := t.cs[cid].q
	p.mu.Unlock()
	if ok {
		return l
	}
	qs, ps := t.c.Trans(q, a).SupportAndProbs()
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := t.succ[sk]; ok {
		return l
	}
	l = make([]succ, 0, len(qs))
	for k, x := range qs {
		if ps[k] > 0 {
			l = append(l, succ{t.internLocked(x), ps[k]})
		}
	}
	t.succ[sk] = l
	return l
}

// innerActLocked maps this product's action ID aid to t.inner's.
func (p *Product) innerActLocked(t *compTab, aid uint32) uint32 {
	for int(aid) >= len(t.innerAct) {
		t.innerAct = append(t.innerAct, 0)
	}
	if ia := t.innerAct[aid]; ia != 0 {
		return ia - 1
	}
	ia := t.inner.actionID(p.actList[aid])
	t.innerAct[aid] = ia + 1
	return ia
}

// actionID returns the ID of an action of some signature entry.
func (p *Product) actionID(a Action) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	aid, ok := p.actIDs[a]
	if !ok {
		panic(fmt.Sprintf("psioa: product %q: action %q is in no signature it has composed", p.id, a))
	}
	return aid
}

// cachedSuccLocked returns the successor list of component i at state cid
// under action aid if it is built.
func (p *Product) cachedSuccLocked(i int, cid, aid uint32) ([]succ, bool) {
	t := &p.tabs[i]
	if t.inner == nil {
		l, ok := t.succ[uint64(cid)<<32|uint64(aid)]
		return l, ok
	}
	if int(aid) >= len(t.innerAct) || t.innerAct[aid] == 0 {
		return nil, false
	}
	in := t.inner
	in.mu.Lock()
	defer in.mu.Unlock()
	l, ok := in.succ[uint64(cid)<<32|uint64(t.innerAct[aid]-1)]
	return l, ok
}

// succOf returns the successor list of state id under action aid, for the
// products this one is a component of, building it once.
func (p *Product) succOf(id, aid uint32) []succ {
	sk := uint64(id)<<32 | uint64(aid)
	p.mu.Lock()
	l, ok := p.succ[sk]
	a := p.actList[aid]
	p.mu.Unlock()
	if ok {
		return l
	}
	s, err := p.prepare(id)
	if err != nil {
		panic(err)
	}
	k := s.ent.pos(aid)
	if k < 0 {
		disabledPanic(p.id, s.q, a)
	}
	p.succs(s, k, func(key []byte, pr float64) {
		l = append(l, succ{p.idLocked(key), pr})
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	if l2, ok := p.succ[sk]; ok {
		return l2
	}
	if p.succ == nil {
		p.succ = make(map[uint64][]succ)
	}
	p.succ[sk] = l
	return l
}

// succs calls f, with p.mu held, for every element of the support of
// η_{(P,q,a)} (Def 2.5), q = s and a = s.ent.acts[k]: its tuple key (valid
// only until f returns) and its mass. Components that do not participate
// stay put (Dirac); participating factors multiply in component order.
// Tuples whose mass multiplies out to zero are skipped, as
// measure.Dist.Add skips them.
func (p *Product) succs(s pstate, k int, f func(key []byte, pr float64)) {
	parts, aid := s.ent.parts(k), s.ent.actID[k]
	p.mu.Lock()
	lists, hit := p.lists[:0], true
	for _, j := range parts {
		l, ok := p.cachedSuccLocked(int(j), idAt(s.key, int(j)), aid)
		if !ok {
			hit = false
			break
		}
		lists = append(lists, l)
	}
	if hit {
		p.lists = lists
	} else {
		p.mu.Unlock()
		lists = make([][]succ, len(parts))
		for n, j := range parts {
			lists[n] = p.compSucc(int(j), idAt(s.key, int(j)), s.ent.acts[k], aid)
		}
		p.mu.Lock()
	}
	defer p.mu.Unlock()
	p.buf = append(p.buf[:0], s.key...)
	cross(p.buf, parts, lists, 1, f)
}

func cross(key []byte, parts []int32, lists [][]succ, pr float64, f func([]byte, float64)) {
	if len(parts) == 0 {
		if pr != 0 {
			f(key, pr)
		}
		return
	}
	for _, s := range lists[0] {
		putID(key, int(parts[0]), s.id)
		cross(key, parts[1:], lists[1:], pr*s.p, f)
	}
}

// splitState returns the component states of state id.
func (p *Product) splitState(id uint32) []State {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := p.states[id].key
	out := make([]State, len(p.tabs))
	for i := range p.tabs {
		out[i] = p.tabs[i].stateLocked(idAt(key, i))
	}
	return out
}

// buildTrans builds η_{(P,q,a)} for state s (ID id) and a = s.ent.acts[k],
// and keeps it in the table unless another goroutine got there first.
func (p *Product) buildTrans(id uint32, s pstate, k int) *Dist {
	d := measure.New[State]()
	p.succs(s, k, func(key []byte, pr float64) {
		d.Add(p.states[p.idLocked(key)].q, pr)
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.states[id]
	if st.trans == nil {
		st.trans = make([]*Dist, len(s.ent.acts))
	}
	if st.trans[k] == nil {
		st.trans[k] = d
	}
	return st.trans[k]
}
