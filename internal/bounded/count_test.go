package bounded_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bounded"
	"repro/internal/codec"
	"repro/internal/measure"
	"repro/internal/pca"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/testaut"
)

// hostileString draws a component from the cases the escape counting has
// to get right: the empty string, exactly "()", and runs of sep, esc,
// parentheses and plain bytes.
func hostileString(r *rand.Rand) string {
	switch r.Intn(8) {
	case 0:
		return ""
	case 1:
		return "()"
	}
	const alphabet = `ab|\()x`
	var b strings.Builder
	for n := 1 + r.Intn(6); n > 0; n-- {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// hostileMass draws a positive mass, favouring those whose formatted
// length differs: 1, 0.1, 1/3, a subnormal and random fractions.
func hostileMass(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return 1
	case 1:
		return 0.1
	case 2:
		return 1.0 / 3
	case 3:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
	}
	return r.Float64()/4 + 1e-300
}

// TestTransBitsMatchesEncoding: the counted |⟨tr⟩| equals the bit length of
// EncodeTransition on generated transitions with hostile components and
// empty, one-element and many-element supports.
func TestTransBitsMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		q, a := psioa.State(hostileString(r)), psioa.Action(hostileString(r))
		eta := measure.New[psioa.State]()
		size := r.Intn(4)
		if i%3 == 0 {
			size = 1
		}
		for j := 0; j < size; j++ {
			eta.Add(psioa.State(hostileString(r)), hostileMass(r))
		}
		want := codec.BitLen(bounded.EncodeTransition(q, a, eta))
		if got := bounded.TransBits(q, a, eta); got != want {
			t.Fatalf("TransBits(%q, %q, %v) = %d, want %d (%q)", q, a, eta, got, want, bounded.EncodeTransition(q, a, eta))
		}
	}
}

// TestTransBitsNoAllocs: counting builds no string and no sorted view.
func TestTransBitsNoAllocs(t *testing.T) {
	eta := measure.New[psioa.State]()
	eta.Add(`s|1`, 1.0/3)
	eta.Add(`()`, 0.5)
	eta.Add(`t\2`, 1.0/6)
	if n := testing.AllocsPerRun(100, func() { bounded.TransBits(`q|()`, "a", eta) }); n != 0 {
		t.Errorf("TransBits allocates %v times per call, want 0", n)
	}
}

// refDescribe is Describe as defined: every length is the bit length of a
// built encoding, and the query work is refInstrumented's on the same walk.
func refDescribe(t *testing.T, a psioa.PSIOA, limit int) *bounded.Desc {
	t.Helper()
	ref := &refInstrumented{PSIOA: a}
	ex, err := psioa.Explore(ref, limit)
	if err != nil {
		t.Fatal(err)
	}
	d := &bounded.Desc{States: len(ex.States), Actions: len(ex.Acts), Truncated: ex.Truncated,
		QueryMaxBits: ref.max, QueryTotalBits: ref.work}
	grow := func(m *int, n int) {
		if n > *m {
			*m = n
		}
	}
	x, isPCA := a.(pca.PCA)
	for _, q := range ex.States {
		grow(&d.MaxStateBits, codec.BitLen(string(q)))
		if isPCA {
			grow(&d.MaxConfigBits, codec.BitLen(x.Config(q).Key()))
			grow(&d.MaxHiddenBits, codec.BitLen(x.HiddenActions(q).Key()))
		}
		for act := range ex.Sigs[q].All() {
			grow(&d.MaxActionBits, codec.BitLen(string(act)))
			grow(&d.MaxTransBits, codec.BitLen(bounded.EncodeTransition(q, act, a.Trans(q, act))))
			if isPCA {
				grow(&d.MaxCreatedBits, codec.BitLen(codec.EncodeSortedSet(x.Created(q, act))))
			}
		}
	}
	return d
}

// refInstrumented is bounded.Instrumented with its charges taken from
// built encodings.
type refInstrumented struct {
	psioa.PSIOA
	work, max int64
}

func (r *refInstrumented) charge(bits int64) {
	r.work += bits
	if bits > r.max {
		r.max = bits
	}
}

func (r *refInstrumented) Sig(q psioa.State) psioa.Signature {
	sig := r.PSIOA.Sig(q)
	bits := int64(codec.BitLen(string(q)))
	for a := range sig.All() {
		bits += int64(codec.BitLen(string(a)))
	}
	r.charge(bits)
	return sig
}

func (r *refInstrumented) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	eta := r.PSIOA.Trans(q, a)
	r.charge(int64(codec.BitLen(bounded.EncodeTransition(q, a, eta))))
	return eta
}

func (r *refInstrumented) CompatAt(q psioa.State) error {
	if cc, ok := r.PSIOA.(interface{ CompatAt(psioa.State) error }); ok {
		return cc.CompatAt(q)
	}
	return nil
}

// describeCase is one automaton of TestDescribeMatchesEncodings; the slow
// ones take seconds against the built encodings. mk builds it afresh.
type describeCase struct {
	name string
	mk   func() psioa.PSIOA
	slow bool
}

// describeCases are the automata of E1, E2 and E3 and of the
// describe-ledger workload: ledger host pairs with one to three subchains,
// their PCA composite (bare, which shares its product's table, and in a
// DescAdapter, which does not) and their plain product, and counters
// composed and hidden.
func describeCases(t *testing.T) []describeCase {
	t.Helper()
	var cases []describeCase
	for _, n := range []int{1, 2, 3} {
		hosts := func() (pca.PCA, pca.PCA) {
			x1, _ := ledger.Host("a", n, ledger.Direct)
			x2, _ := ledger.Host("b", n, ledger.Parity)
			return x1, x2
		}
		if _, err := pca.ComposePCA(hosts()); err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			describeCase{fmt.Sprintf("ledger-direct-%d", n), func() psioa.PSIOA {
				x1, _ := hosts()
				return x1
			}, false},
			describeCase{fmt.Sprintf("ledger-parity-%d", n), func() psioa.PSIOA {
				_, x2 := hosts()
				return x2
			}, false},
			describeCase{fmt.Sprintf("ledger-pca-composite-%d", n), func() psioa.PSIOA {
				comp, _ := pca.ComposePCA(hosts())
				return comp
			}, n == 3},
			describeCase{fmt.Sprintf("ledger-adapted-composite-%d", n), func() psioa.PSIOA {
				comp, _ := pca.ComposePCA(hosts())
				return pca.DescAdapter{PCA: comp}
			}, n == 3},
			describeCase{fmt.Sprintf("ledger-product-%d", n), func() psioa.PSIOA {
				x1, x2 := hosts()
				return psioa.MustCompose(x1, x2)
			}, n == 3})
	}
	for _, n := range []int{2, 8, 32} {
		cases = append(cases, describeCase{fmt.Sprintf("counters-%d-%d", n, 2*n), func() psioa.PSIOA {
			return psioa.MustCompose(testaut.Counter("a1", n), testaut.Counter("a2", 2*n))
		}, false})
	}
	for _, n := range []int{4, 16} {
		cases = append(cases, describeCase{fmt.Sprintf("hidden-counter-%d", n), func() psioa.PSIOA {
			return psioa.HideSet(testaut.Counter("a", n), psioa.NewActionSet("done_a", "tick"))
		}, false})
	}
	return cases
}

// checkDescribe holds Describe of a fresh automaton from mk equal to
// refDescribe, and its query work equal to QueryWork's (the Instrumented
// reference), at limit.
func checkDescribe(t *testing.T, mk func() psioa.PSIOA, limit int) *bounded.Desc {
	t.Helper()
	got, err := bounded.Describe(mk(), limit)
	if err != nil {
		t.Fatalf("limit %d: %v", limit, err)
	}
	if want := refDescribe(t, mk(), limit); *got != *want {
		t.Errorf("limit %d: Describe = %+v, want %+v", limit, got, want)
	}
	maxQ, total, err := bounded.QueryWork(mk(), limit)
	if err != nil {
		t.Fatalf("limit %d: %v", limit, err)
	}
	if got.QueryMaxBits != maxQ || got.QueryTotalBits != total {
		t.Errorf("limit %d: Describe's query work (%d, %d), QueryWork's (%d, %d)",
			limit, got.QueryMaxBits, got.QueryTotalBits, maxQ, total)
	}
	return got
}

// checkDescribeLimits runs checkDescribe at the full limit and at the
// truncating limits 1, 7 and the reachable count − 1.
func checkDescribeLimits(t *testing.T, mk func() psioa.PSIOA) {
	t.Helper()
	full := checkDescribe(t, mk, 100000)
	for _, limit := range []int{1, 7, full.States - 1} {
		if limit > 0 && limit < full.States {
			checkDescribe(t, mk, limit)
		}
	}
}

// TestDescribeMatchesEncodings: Describe and QueryWork, which count
// lengths, agree with the definitions that build every encoding, whole and
// truncated. The slow cases are left out in -short mode.
func TestDescribeMatchesEncodings(t *testing.T) {
	for _, c := range describeCases(t) {
		if testing.Short() && c.slow {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkDescribeLimits(t, c.mk)
		})
	}
}

// TestDescribeSyncWorlds runs the same differential on testaut's generated
// worlds: escape-laden state names, products bare, hidden, nested under
// Atomic and under a state-dependent hiding.
func TestDescribeSyncWorlds(t *testing.T) {
	for _, w := range testaut.SyncWorlds() {
		for seed := uint64(1); seed <= w.Seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", w.Name, seed), func(t *testing.T) {
				checkDescribeLimits(t, func() psioa.PSIOA { return w.Make(seed) })
			})
		}
	}
}

// TestDescribeConcurrent runs Describe and QueryWork on one shared, cold
// ledger pair, and Describe on the pair's product, whole and truncated,
// from several goroutines; under -race it covers the PCA memo and the
// product table filling up and the Instrumented counters. The answers come
// from a second pair walked alone.
func TestDescribeConcurrent(t *testing.T) {
	const limit = 100000
	hosts := func() []pca.PCA {
		x1, _ := ledger.Host("a", 1, ledger.Direct)
		x2, _ := ledger.Host("b", 1, ledger.Parity)
		return []pca.PCA{x1, x2}
	}
	type answer struct {
		desc       bounded.Desc
		maxQ, work int64
	}
	run := func(x pca.PCA) (answer, error) {
		d, err := bounded.Describe(x, limit)
		if err != nil {
			return answer{}, err
		}
		maxQ, work, err := bounded.QueryWork(x, limit)
		return answer{*d, maxQ, work}, err
	}
	want := make([]answer, 2)
	for i, x := range hosts() {
		var err error
		if want[i], err = run(x); err != nil {
			t.Fatal(err)
		}
	}
	product := func(xs []pca.PCA) psioa.PSIOA { return psioa.MustCompose(xs[0], xs[1]) }
	wantProd := map[int]bounded.Desc{}
	for _, l := range []int{limit, 7} {
		d, err := bounded.Describe(product(hosts()), l)
		if err != nil {
			t.Fatal(err)
		}
		wantProd[l] = *d
	}
	pair := hosts()
	shared := product(pair)
	// One Counter shared by every walk sums their work.
	var counter bounded.Counter
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := psioa.Explore(bounded.Instrument(pair[0], &counter), limit); err != nil {
				t.Error(err)
			}
		}()
		go func(l int) {
			defer wg.Done()
			if d, err := bounded.Describe(shared, l); err != nil {
				t.Error(err)
			} else if *d != wantProd[l] {
				t.Errorf("concurrent product answer %+v at limit %d, want %+v", d, l, wantProd[l])
			}
		}([]int{limit, 7}[g%2])
		for i, x := range pair {
			wg.Add(1)
			go func(i int, x pca.PCA) {
				defer wg.Done()
				got, err := run(x)
				if err != nil {
					t.Error(err)
				} else if got != want[i] {
					t.Errorf("concurrent answer %+v, want %+v", got, want[i])
				}
			}(i, x)
		}
	}
	wg.Wait()
	if got := counter.Work.Load(); got != 4*want[0].work {
		t.Errorf("shared counter work %d, want 4×%d", got, want[0].work)
	}
	if got := counter.MaxQueryWork.Load(); got != want[0].maxQ {
		t.Errorf("shared counter max %d, want %d", got, want[0].maxQ)
	}
}
