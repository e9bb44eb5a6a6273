package psioa

import "fmt"

// Renamed is the action-renaming operator of Def 2.8: r(A) renames, at each
// state q, the actions of sig(A)(q) through the injective map r(q). States
// and transition targets are untouched (Lemma A.1: r(A) is a PSIOA).
type Renamed struct {
	inner PSIOA
	r     func(State, Action) Action
}

// Rename applies the state-dependent renaming r to A. For each state q,
// r(q, ·) must be injective on sig(A)(q)^; Validate checks this on the
// reachable fragment.
func Rename(a PSIOA, r func(State, Action) Action) *Renamed {
	return &Renamed{inner: a, r: r}
}

// RenameMap renames via a fixed, state-independent partial map; actions
// outside the map are unchanged. Used for the adversary-action renamings g
// of Section 4.9. The map must be injective and must not map any action onto
// an unrenamed action that co-occurs in a signature; Validate detects
// violations on the reachable fragment.
func RenameMap(a PSIOA, m map[Action]Action) *Renamed {
	cp := make(map[Action]Action, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return Rename(a, func(_ State, act Action) Action {
		if to, ok := cp[act]; ok {
			return to
		}
		return act
	})
}

// ID implements PSIOA.
func (r *Renamed) ID() string { return "ren(" + r.inner.ID() + ")" }

// Inner returns the wrapped automaton.
func (r *Renamed) Inner() PSIOA { return r.inner }

// Start implements PSIOA.
func (r *Renamed) Start() State { return r.inner.Start() }

// Sig implements PSIOA per Def 2.8 item 3. It is not cached: a product
// over r(A) interns each component signature once per component state.
func (r *Renamed) Sig(q State) Signature {
	inner := r.inner.Sig(q)
	f := func(a Action) Action { return r.r(q, a) }
	return Signature{
		In:  inner.In.MapActions(f),
		Out: inner.Out.MapActions(f),
		Int: inner.Int.MapActions(f),
	}
}

// Trans implements PSIOA per Def 2.8 item 4: dtrans(r(A)) =
// {(q, r(a), η) | (q, a, η) ∈ dtrans(A)}. The pre-image of the requested
// action comes from a scan of the inner signature at q; two pre-images
// (a renaming that is not injective at q) panic.
func (r *Renamed) Trans(q State, b Action) *Dist {
	sig := r.inner.Sig(q)
	var pre Action
	n := 0
	for _, set := range [...]ActionSet{sig.In, sig.Out, sig.Int} {
		for a := range set {
			if r.r(q, a) == b {
				pre = a
				n++
			}
		}
	}
	switch {
	case n == 0:
		disabledPanic(r.ID(), q, b)
	case n > 1:
		panic(fmt.Sprintf("psioa: renaming of %q is not injective at state %q: two pre-images of %q", r.inner.ID(), q, b))
	}
	return r.inner.Trans(q, pre)
}

// CompatAt checks injectivity of the renaming at q and delegates to the
// wrapped automaton.
func (r *Renamed) CompatAt(q State) error {
	innerSig := r.inner.Sig(q).All()
	seen := make(map[Action]Action, len(innerSig))
	for a := range innerSig {
		b := r.r(q, a)
		if prev, dup := seen[b]; dup {
			return fmt.Errorf("psioa: renaming of %q not injective at %q: %q and %q both map to %q", r.inner.ID(), q, prev, a, b)
		}
		seen[b] = a
	}
	if cc, ok := r.inner.(compatAtChecker); ok {
		return cc.CompatAt(q)
	}
	return nil
}

// FreshRenaming builds an injective map sending every action in s to a fresh
// name obtained by prefixing, suitable as the bijection g from AAct_A to
// fresh action names used by the dummy-adversary construction (Def 4.27).
func FreshRenaming(prefix string, s ActionSet) map[Action]Action {
	m := make(map[Action]Action, len(s))
	for a := range s {
		m[a] = Action(prefix + string(a))
	}
	return m
}

// InvertRenaming returns the inverse of an injective action map.
func InvertRenaming(m map[Action]Action) map[Action]Action {
	inv := make(map[Action]Action, len(m))
	for k, v := range m {
		if _, dup := inv[v]; dup {
			panic(fmt.Sprintf("psioa: InvertRenaming: map is not injective at %q", v))
		}
		inv[v] = k
	}
	return inv
}
