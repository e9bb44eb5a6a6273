package pca_test

import (
	"testing"
	"testing/quick"

	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/testaut"
)

// randConfig builds a random configuration over fresh coin automata.
func randConfig(seed uint64, n int) (*pca.Config, pca.MapRegistry) {
	stream := rng.New(seed)
	reg := pca.MapRegistry{}
	states := map[string]psioa.State{}
	names := []psioa.State{"q0", "h", "t"}
	for i := 0; i < n; i++ {
		id := string(rune('a'+i)) + "coin"
		c := testaut.Coin(id, 0.5)
		reg.Register(c)
		states[id] = names[stream.IntN(len(names))]
	}
	return pca.NewConfig(states), reg
}

// TestConfigKeyInjectiveQuick: distinct configurations encode distinctly
// and round-trip through their keys.
func TestConfigKeyInjectiveQuick(t *testing.T) {
	prop := func(s1, s2 uint64, n1, n2 uint8) bool {
		c1, _ := randConfig(s1, 1+int(n1%3))
		c2, _ := randConfig(s2, 1+int(n2%3))
		d1, err1 := pca.FromKey(c1.Key())
		d2, err2 := pca.FromKey(c2.Key())
		if err1 != nil || err2 != nil {
			return false
		}
		if !c1.Equal(d1) || !c2.Equal(d2) {
			return false
		}
		return (c1.Key() == c2.Key()) == c1.Equal(c2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReduceIdempotentQuick: reduce(reduce(C)) = reduce(C) (Def 2.12).
func TestReduceIdempotentQuick(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		c, reg := randConfig(seed, 1+int(n%3))
		// Put one automaton in the destroyed state sometimes.
		if seed%2 == 0 && c.Len() > 0 {
			c = c.With(c.Auts()[0], "done")
		}
		r1, err := c.Reduce(reg)
		if err != nil {
			return false
		}
		r2, err := r1.Reduce(reg)
		if err != nil {
			return false
		}
		ok1, _ := r1.IsReduced(reg)
		return r1.Equal(r2) && ok1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPreservingTransMassQuick: preserving transitions are probability
// measures and preserve the automaton set (Def 2.13).
func TestPreservingTransMassQuick(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		c, reg := randConfig(seed, 1+int(n%3))
		sig, err := c.Sig(reg)
		if err != nil {
			return false
		}
		for a := range sig.All() {
			eta, err := pca.PreservingTrans(reg, c, a)
			if err != nil || !eta.IsProb() {
				return false
			}
			for _, key := range eta.Support() {
				c2, err := pca.FromKey(key)
				if err != nil || c2.Len() != c.Len() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestIntrinsicTransMassQuick: intrinsic transitions with creation are
// probability measures over *reduced* configurations containing the
// created automata (Def 2.14), whenever the source is reduced.
func TestIntrinsicTransMassQuick(t *testing.T) {
	fresh := testaut.Coin("freshcoin", 0.5)
	prop := func(seed uint64, n uint8, create bool) bool {
		c, reg := randConfig(seed, 1+int(n%2))
		reg.Register(fresh)
		reduced, err := c.IsReduced(reg)
		if err != nil || !reduced {
			return true // only reduced sources are in the domain
		}
		sig, err := c.Sig(reg)
		if err != nil {
			return false
		}
		var created []string
		if create && !c.Has("freshcoin") {
			created = []string{"freshcoin"}
		}
		for a := range sig.All() {
			eta, err := pca.IntrinsicTrans(reg, c, a, created)
			if err != nil || !eta.IsProb() {
				return false
			}
			for _, key := range eta.Support() {
				c2, err := pca.FromKey(key)
				if err != nil {
					return false
				}
				isRed, err := c2.IsReduced(reg)
				if err != nil || !isRed {
					return false
				}
				// A created automaton appears unless instantly destroyed —
				// coins start with a non-empty signature, so it must appear.
				if len(created) > 0 && !c2.Has("freshcoin") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConfigSigMatchesComposedSig: the intrinsic signature of a
// configuration agrees with the composed signature of its constituents
// (Def 2.11 vs Def 2.4).
func TestConfigSigMatchesComposedSig(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		c, reg := randConfig(seed, 1+int(n%3))
		cSig, err := c.Sig(reg)
		if err != nil {
			return false
		}
		sigs := make([]psioa.Signature, 0, c.Len())
		for _, id := range c.Auts() {
			aut, _ := reg.Lookup(id)
			st, _ := c.StateOf(id)
			sigs = append(sigs, aut.Sig(st))
		}
		return cSig.Equal(psioa.ComposeSignatures(sigs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
