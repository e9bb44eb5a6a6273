package pca_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/measure"
	"repro/internal/pca"
	"repro/internal/psioa"
	"repro/internal/rng"
)

// refPreservingTrans is PreservingTrans as the key round trip of Def 2.13:
// the product of the constituents' measures over encoded state tuples,
// each tuple decoded back into a configuration and encoded as its key.
func refPreservingTrans(reg pca.Registry, c *pca.Config, a psioa.Action) (*measure.Dist[string], error) {
	if err := c.Compatible(reg); err != nil {
		return nil, err
	}
	sig, err := c.Sig(reg)
	if err != nil {
		return nil, err
	}
	if !sig.Has(a) {
		return nil, fmt.Errorf("pca: action %q not in sig(C) for C=%v", a, c)
	}
	ids := c.Auts()
	factors := make([]*measure.Dist[string], len(ids))
	for i, id := range ids {
		aut, _ := reg.Lookup(id)
		q, _ := c.StateOf(id)
		if aut.Sig(q).Has(a) {
			d := measure.New[string]()
			aut.Trans(q, a).ForEach(func(q2 psioa.State, p float64) { d.Add(string(q2), p) })
			factors[i] = d
		} else {
			factors[i] = measure.Dirac(string(q))
		}
	}
	out := measure.New[string]()
	measure.ProductN(factors, codec.EncodeTuple).ForEach(func(tuple string, p float64) {
		parts := codec.MustDecodeTuple(tuple)
		states := make(map[string]psioa.State, len(ids))
		for i, id := range ids {
			states[id] = psioa.State(parts[i])
		}
		out.Add(pca.NewConfig(states).Key(), p)
	})
	return out, nil
}

// refIsReduced is C = reduce(C), compared by key.
func refIsReduced(reg pca.Registry, c *pca.Config) (bool, error) {
	r, err := c.Reduce(reg)
	if err != nil {
		return false, err
	}
	return r.Key() == c.Key(), nil
}

// refIntrinsicTrans is IntrinsicTrans as the key round trip of Def 2.14:
// refPreservingTrans, then each successor key decoded with FromKey, the
// created automata added at their start states with With, and the result
// reduced and encoded again.
func refIntrinsicTrans(reg pca.Registry, c *pca.Config, a psioa.Action, created []string) (*measure.Dist[string], error) {
	reduced, err := refIsReduced(reg, c)
	if err != nil {
		return nil, err
	}
	if !reduced {
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
	etaP, err := refPreservingTrans(reg, c, a)
	if err != nil {
		return nil, err
	}
	out := measure.New[string]()
	var ierr error
	etaP.ForEach(func(key string, p float64) {
		next, err := pca.FromKey(key)
		if err != nil {
			ierr = err
			return
		}
		for _, id := range created {
			aut, _ := reg.Lookup(id)
			next = next.With(id, aut.Start())
		}
		red, err := next.Reduce(reg)
		if err != nil {
			ierr = err
			return
		}
		out.Add(red.Key(), p)
	})
	return out, ierr
}

// genWorld generates up to four automata x0..x3 with four states s0..s3
// each. Automaton xi controls outputs oi0, oi1 and the internal action
// hi, and listens to the others' outputs; a state's signature draws each
// of these, and is empty with probability 1/4, the start state s0
// included: such states are destroyed on reduction, and an automaton
// created at an empty start state disappears at once. Now and then a
// state also claims a neighbour's output, which makes configurations
// incompatible. Each enabled action moves to one to three states with
// masses drawn from a few binary fractions. genWorld returns the
// registry, a configuration over a subset of the automata at random
// states, an action (mostly one the configuration enables) and a created
// set that may repeat an identifier, name a constituent or name the
// unregistered "ghost".
func genWorld(seed uint64) (pca.MapRegistry, *pca.Config, psioa.Action, []string) {
	r := rng.New(seed)
	states := []psioa.State{"s0", "s1", "s2", "s3"}
	n := 1 + r.IntN(4)
	out := func(i, k int) psioa.Action { return psioa.Action(fmt.Sprintf("o%d%d", i%n, k)) }
	reg := pca.MapRegistry{}
	ids := make([]string, n)
	var pool []psioa.Action
	for i := range ids {
		ids[i] = fmt.Sprintf("x%d", i)
		b := psioa.NewBuilder(ids[i], "s0")
		for _, q := range states {
			var in, outs, internal []psioa.Action
			if r.IntN(4) > 0 {
				for k := range 2 {
					if r.IntN(2) == 0 {
						outs = append(outs, out(i, k))
					}
				}
				if r.IntN(3) == 0 {
					internal = append(internal, psioa.Action(fmt.Sprintf("h%d", i)))
				}
				for j := range n {
					if j != i && r.IntN(3) == 0 {
						in = append(in, out(j, r.IntN(2)))
					}
				}
				if n > 1 && r.IntN(16) == 0 && !slices.Contains(in, out(i+1, 0)) {
					outs = append(outs, out(i+1, 0))
				}
			}
			slices.Sort(in)
			in = slices.Compact(in)
			b.AddState(q, psioa.NewSignature(in, outs, internal))
			for _, a := range slices.Concat(in, outs, internal) {
				pool = append(pool, a)
				d := measure.New[psioa.State]()
				left := 1.0
				for k := r.IntN(3); k > 0; k-- {
					p := left * []float64{0.5, 0.25, 0.125}[r.IntN(3)]
					d.Add(states[r.IntN(len(states))], p)
					left -= p
				}
				d.Add(states[r.IntN(len(states))], left)
				b.AddTrans(q, a, d)
			}
		}
		reg.Register(b.MustBuild())
	}
	cfg := map[string]psioa.State{}
	var enabled []psioa.Action
	for _, id := range ids {
		if r.IntN(3) > 0 {
			aut, _ := reg.Lookup(id)
			cfg[id] = states[r.IntN(len(states))]
			enabled = append(enabled, psioa.SortedAll(aut.Sig(cfg[id]))...)
		}
	}
	a := psioa.Action("zz")
	if r.IntN(8) > 0 && len(enabled) > 0 {
		a = enabled[r.IntN(len(enabled))]
	} else if len(pool) > 0 && r.IntN(2) == 0 {
		a = pool[r.IntN(len(pool))]
	}
	var created []string
	for k := r.IntN(3); k > 0; k-- {
		switch id := ids[r.IntN(len(ids))]; {
		case r.IntN(16) == 0:
			created = append(created, "ghost")
		case cfg[id] == "" || r.IntN(8) == 0:
			created = append(created, id)
		}
	}
	return reg, pca.NewConfig(cfg), a, created
}

// sameTrans fails t unless got and want are the same outcome: equal error
// texts, or supports equal with masses within measure.Eps.
func sameTrans(t *testing.T, what string, got *measure.Dist[string], gotErr error, want *measure.Dist[string], wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
		}
		return
	}
	gk, wk := got.SortedSupport(), want.SortedSupport()
	if !slices.Equal(gk, wk) {
		t.Fatalf("%s: support %q, want %q", what, gk, wk)
	}
	for _, k := range wk {
		if math.Abs(got.P(k)-want.P(k)) > measure.Eps {
			t.Fatalf("%s: P(%q) = %v, want %v", what, k, got.P(k), want.P(k))
		}
	}
}

// FuzzIntrinsicTrans holds PreservingTrans, IntrinsicTrans and IsReduced
// to their key round-trip references on generated configurations with
// creation and destruction, errors included.
func FuzzIntrinsicTrans(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		reg, c, a, created := genWorld(seed)
		what := fmt.Sprintf("seed %d: %v on %q creating %q", seed, c, a, created)
		got, gotErr := c.IsReduced(reg)
		want, wantErr := refIsReduced(reg, c)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: IsReduced = %v, %v, want %v, %v", what, got, gotErr, want, wantErr)
		}
		eta, err := pca.PreservingTrans(reg, c, a)
		refEta, refErr := refPreservingTrans(reg, c, a)
		sameTrans(t, what+": preserving", eta, err, refEta, refErr)
		eta, err = pca.IntrinsicTrans(reg, c, a, created)
		refEta, refErr = refIntrinsicTrans(reg, c, a, created)
		sameTrans(t, what+": intrinsic", eta, err, refEta, refErr)
	})
}
