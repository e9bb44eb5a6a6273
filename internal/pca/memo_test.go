package pca_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bounded"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/pca"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/testaut"
)

// countingLedger rebuilds the ledger host id with n subchains of variant v,
// adding an (empty) hidden-actions mapping and a creation mapping that
// count their calls. The state memo evaluates hidden-actions exactly once
// per decode and the creation mapping once per (q, a) it builds, so the
// counts are the number of decodes and of transitions built.
func countingLedger(id string, n int, v ledger.Variant) (x *pca.ConfigAutomaton, hidden, created *atomic.Int64) {
	host, reg := ledger.Host(id, n, v)
	hidden, created = new(atomic.Int64), new(atomic.Int64)
	x = pca.MustNew(host.ID(), reg, host.Config(host.Start()),
		pca.WithHidden(func(*pca.Config) psioa.ActionSet {
			hidden.Add(1)
			return psioa.NewActionSet()
		}),
		pca.WithCreated(func(c *pca.Config, a psioa.Action) []string {
			created.Add(1)
			// The ledger's own mapping: the controller at h<k> opens
			// subchain k.
			st, _ := c.StateOf("host_" + id)
			var k int
			if _, err := fmt.Sscanf(string(st), "h%d", &k); a != ledger.Open(id) || err != nil {
				return nil
			}
			return []string{ledger.SubchainID(id, k)}
		}))
	return x, hidden, created
}

// TestConfigAutomatonDecodesEachStateOnce runs the describe-ledger shape —
// two explorations of each host and a composition bound of the pair — and
// checks that every distinct state was decoded once and every distinct
// enabled (q, a) transition built once, however often the product asked.
func TestConfigAutomatonDecodesEachStateOnce(t *testing.T) {
	x1, hidden1, created1 := countingLedger("a", 3, ledger.Direct)
	x2, hidden2, created2 := countingLedger("b", 3, ledger.Parity)
	decodes := obs.C("pca.config.decodes")
	before := decodes.Value()
	const limit = 100000
	var states, trans int64
	for _, x := range []*pca.ConfigAutomaton{x1, x2} {
		var ex *psioa.Exploration
		for i := 0; i < 2; i++ {
			var err error
			if ex, err = psioa.Explore(x, limit); err != nil {
				t.Fatal(err)
			}
		}
		if ex.Truncated {
			t.Fatalf("%s: exploration truncated", x.ID())
		}
		states += int64(len(ex.States))
		for _, q := range ex.States {
			trans += int64(len(ex.Sigs[q].All()))
		}
	}
	if _, err := bounded.CompositionBound(x1, x2, limit); err != nil {
		t.Fatal(err)
	}
	if got := hidden1.Load() + hidden2.Load(); got != states {
		t.Errorf("decoded %d times for %d distinct states", got, states)
	}
	if got := decodes.Value() - before; got != states {
		t.Errorf("pca.config.decodes grew by %d, want %d distinct states", got, states)
	}
	if got := created1.Load() + created2.Load(); got != trans {
		t.Errorf("built %d transitions for %d distinct (q, a)", got, trans)
	}
	// Repeated queries return the very values built the first time.
	q := x1.Start()
	a := x1.Sig(q).All().Sorted()[0]
	if x1.Trans(q, a) != x1.Trans(q, a) || x1.Config(q) != x1.Config(q) {
		t.Error("repeated queries rebuilt their results")
	}
}

// TestConfigAutomatonConcurrentQueries lets eight goroutines explore and
// describe one shared automaton from cold; every result must equal the
// one a fresh automaton gives serially.
func TestConfigAutomatonConcurrentQueries(t *testing.T) {
	const limit = 100000
	ref, _ := ledger.Host("r", 3, ledger.Parity)
	wantEx, err := psioa.Explore(ref, limit)
	if err != nil {
		t.Fatal(err)
	}
	wantDesc, err := bounded.Describe(ref, limit)
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := ledger.Host("r", 3, ledger.Parity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex, err := psioa.Explore(shared, limit)
			if err != nil {
				t.Error(err)
				return
			}
			d, err := bounded.Describe(shared, limit)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(ex, wantEx) {
				t.Error("concurrent exploration differs from the serial one")
			}
			if !reflect.DeepEqual(d, wantDesc) {
				t.Errorf("concurrent description %+v, want %+v", d, wantDesc)
			}
		}()
	}
	wg.Wait()
}

// TestValidatePCASignatureFailureNotMemoized validates a PCA whose start
// configuration names an automaton the registry no longer has. The failing
// state is decoded afresh by each validation, and both report the same
// error.
func TestValidatePCASignatureFailureNotMemoized(t *testing.T) {
	reg := pca.MapRegistry{}.Register(testaut.Coin("c1", 0.5))
	x := pca.MustNew("ghost", reg, pca.NewConfig(map[string]psioa.State{"c1": "q0"}))
	delete(reg, "c1")
	decodes := obs.C("pca.config.decodes")
	before := decodes.Value()
	err1 := pca.ValidatePCA(x, 100)
	mid := decodes.Value()
	err2 := pca.ValidatePCA(x, 100)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("errors %v then %v, want the same failure twice", err1, err2)
	}
	if mid == before || decodes.Value() == mid {
		t.Error("the failing state was not decoded again by the second validation")
	}
}

// TestValidatePCAChecksMemoAgainstFreshTransition makes a constituent
// drift after its first transition. The memoized transition keeps the
// first outcome; ValidatePCA recomputes the intrinsic transition, sees the
// second, and must report constraint 2 — it never checks the memo against
// itself.
func TestValidatePCAChecksMemoAgainstFreshTransition(t *testing.T) {
	sig := psioa.NewSignature(nil, []psioa.Action{"go"}, nil)
	var calls atomic.Int64
	drift := &psioa.Func{
		Name:    "drift",
		StartSt: "s",
		SigFn:   func(psioa.State) psioa.Signature { return sig },
		TransFn: func(psioa.State, psioa.Action) *psioa.Dist {
			if calls.Add(1) == 1 {
				return measure.Dirac[psioa.State]("s")
			}
			return measure.Dirac[psioa.State]("t")
		},
	}
	reg := pca.MapRegistry{}.Register(drift)
	x := pca.MustNew("X", reg, pca.NewConfig(map[string]psioa.State{"drift": "s"}))
	x.Trans(x.Start(), "go") // memoizes the first outcome
	if err := pca.ValidatePCA(x, 100); err == nil {
		t.Error("ValidatePCA accepted a memoized transition that no longer matches the intrinsic one")
	}
}
