package engine_test

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols/channel"
	"repro/internal/psioa"
	"repro/internal/testaut"
)

// fingerprintByTrans is the reference rendering of Fingerprint: explore,
// then re-read every reachable state's signature and every transition
// measure through Sig and Trans, hashing them in sorted-state order.
func fingerprintByTrans(a psioa.PSIOA, limit int) (string, error) {
	ex, err := psioa.Explore(a, limit)
	if err != nil {
		return "", err
	}
	h := fnv.New128a()
	wr := func(s string) { h.Write(append([]byte(s), 0)) }
	wr(a.ID())
	wr(string(a.Start()))
	for _, q := range ex.SortedStates() {
		sig := ex.Sigs[q]
		wr("q")
		wr(string(q))
		for _, part := range []struct {
			tag  string
			acts psioa.ActionSet
		}{{"in", sig.In}, {"out", sig.Out}, {"int", sig.Int}} {
			wr(part.tag)
			for _, act := range part.acts.Sorted() {
				wr(string(act))
			}
		}
		for _, act := range sig.All().Sorted() {
			wr("t")
			wr(string(act))
			succs, ps := a.Trans(q, act).SupportAndProbs()
			for i, q2 := range succs {
				wr(string(q2))
				h.Write(append(strconv.AppendFloat(nil, ps[i], 'g', -1, 64), 0))
			}
		}
	}
	fp := fmt.Sprintf("%x", h.Sum(nil))
	if ex.Truncated {
		fp += "!trunc"
	}
	return fp, nil
}

// TestFingerprintMatchesTrans holds the one-walk Fingerprint equal to the
// reference rendering on the generated worlds (products, hidden and
// nested), a bare component and a protocol world, at the full limit and
// at limits that truncate the walk. Each side gets a fresh world, so the
// reference's Trans calls cannot feed the walk.
func TestFingerprintMatchesTrans(t *testing.T) {
	worlds := append(testaut.SyncWorlds(),
		testaut.SyncWorld{Name: "component", Seeds: 4, Make: func(seed uint64) psioa.PSIOA {
			return testaut.SyncAut("u", []psioa.Action{"m0", "m1"}, []psioa.Action{"n0"}, seed)
		}},
		testaut.SyncWorld{Name: "channel", Seeds: 1, Make: func(uint64) psioa.PSIOA {
			return psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
		}})
	for _, w := range worlds {
		for seed := uint64(1); seed <= w.Seeds; seed++ {
			ex, err := psioa.Explore(w.Make(seed), engine.DefaultFingerprintLimit)
			if err != nil {
				t.Fatal(err)
			}
			n := len(ex.States)
			for _, limit := range []int{engine.DefaultFingerprintLimit, 1, 7, n - 1} {
				if limit < 1 {
					continue
				}
				got, err := engine.Fingerprint(w.Make(seed), limit)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fingerprintByTrans(w.Make(seed), limit)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s seed %d limit %d (%d reachable): Fingerprint = %s, reference = %s", w.Name, seed, limit, n, got, want)
				}
			}
		}
	}
}
