// Kernel-equivalence pins: canonical fingerprints of the Measure / Sample /
// Explore kernels on fixed workloads, hashed and compared against goldens
// captured from the pre-optimization sequential implementation (the same
// policy E18 applies to the engine layer: optimized kernels must reproduce
// the seed path byte for byte). Any representation change that alters a
// support element, a probability bit, a cone mass, or a discovery order
// fails these tests.
//
// Regenerate the goldens (only when a behavior change is intended) with:
//
//	PIN_PRINT=1 go test -run TestKernelPins -v .
package dse_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/protocols/channel"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// measureFingerprint renders an execution measure exhaustively: every
// support element with its exact mass, the total, the depth, and the cone
// mass of every fragment in the expansion tree.
func measureFingerprint(a psioa.PSIOA, s sched.Scheduler, maxDepth int) (string, error) {
	em, err := sched.Measure(a, s, maxDepth)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	em.ForEach(func(f *psioa.Frag, p float64) {
		fmt.Fprintf(&b, "E %s %.17g\n", f.Key(), p)
	})
	fmt.Fprintf(&b, "total %.17g len %d maxlen %d\n", em.Total(), em.Len(), em.MaxLen())
	em.ForEachPrefix(func(f *psioa.Frag) {
		fmt.Fprintf(&b, "C %s %.17g\n", f.Key(), em.Cone(f))
	})
	return b.String(), nil
}

// sampleFingerprint renders a Monte-Carlo image estimate from a fixed
// random stream.
func sampleFingerprint(a psioa.PSIOA, s sched.Scheduler, seed uint64, maxDepth, n int) (string, error) {
	d, err := sched.SampleImage(a, s, rng.New(seed), maxDepth, n, func(f *psioa.Frag) string { return f.TraceKey(a) })
	if err != nil {
		return "", err
	}
	keys := d.Support()
	var b strings.Builder
	fmt.Fprintf(&b, "total %.17g\n", d.Total())
	for _, k := range sortedStrings(keys) {
		fmt.Fprintf(&b, "S %s %.17g\n", k, d.P(k))
	}
	return b.String(), nil
}

func sortedStrings(ss []string) []string {
	out := append([]string(nil), ss...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// exploreFingerprint renders a bounded reachability analysis: discovery
// order, signatures, action universe, truncation.
func exploreFingerprint(a psioa.PSIOA, limit int) (string, error) {
	ex, err := psioa.Explore(a, limit)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, q := range ex.States {
		fmt.Fprintf(&b, "Q %s sig %s\n", q, ex.Sigs[q])
	}
	fmt.Fprintf(&b, "acts %s truncated %v\n", ex.Acts, ex.Truncated)
	return b.String(), nil
}

func pinHash(text string) string {
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:])
}

// kernelPinCases enumerates the pinned workloads. All probabilities are
// dyadic so every float sum is exact and order-independent — the goldens
// are stable bit for bit on any conforming implementation.
func kernelPinCases() []struct {
	name string
	text func() (string, error)
} {
	counterActs := func(n int, id string) []psioa.Action {
		acts := make([]psioa.Action, 0, n+1)
		for i := 0; i < n; i++ {
			acts = append(acts, "tick")
		}
		return append(acts, psioa.Action("done_"+id))
	}
	return []struct {
		name string
		text func() (string, error)
	}{
		{"measure/counter-seq", func() (string, error) {
			c := testaut.Counter("c", 8)
			return measureFingerprint(c, &sched.Sequence{A: c, Acts: counterActs(8, "c")}, 12)
		}},
		{"measure/walk-greedy", func() (string, error) {
			w := testaut.RandomWalk("w", 8, 0.5)
			return measureFingerprint(w, &sched.Greedy{A: w, Bound: 12, LocalOnly: true}, 14)
		}},
		{"measure/coins-random", func() (string, error) {
			p := psioa.MustCompose(testaut.Coin("c0", 0.5), testaut.Coin("c1", 0.25))
			return measureFingerprint(p, &sched.Random{A: p, Bound: 6, LocalOnly: true}, 8)
		}},
		{"measure/ledger-priority", func() (string, error) {
			x, _ := ledger.Host("m", 2, ledger.Direct)
			order := []psioa.Action{
				"sample_0_m", "sample_1_m",
				ledger.Sealed("m", 0, 0), ledger.Sealed("m", 0, 1),
				ledger.Sealed("m", 1, 0), ledger.Sealed("m", 1, 1),
				ledger.Open("m"),
			}
			return measureFingerprint(x, &sched.Priority{A: x, Bound: 12, LocalOnly: true, Order: order}, 20)
		}},
		{"measure/depth-zero", func() (string, error) {
			c := testaut.Coin("c", 0.5)
			return measureFingerprint(c, &sched.Greedy{A: c, Bound: 4, LocalOnly: true}, 0)
		}},
		{"sample/walk-greedy", func() (string, error) {
			w := testaut.RandomWalk("w", 8, 0.5)
			return sampleFingerprint(w, &sched.Greedy{A: w, Bound: 12, LocalOnly: true}, 42, 14, 4096)
		}},
		{"sample/coins-random", func() (string, error) {
			p := psioa.MustCompose(testaut.Coin("c0", 0.5), testaut.Coin("c1", 0.25))
			return sampleFingerprint(p, &sched.Random{A: p, Bound: 6, LocalOnly: true}, 99, 8, 2048)
		}},
		{"explore/channel-world", func() (string, error) {
			w := psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
			return exploreFingerprint(w, 100000)
		}},
		{"explore/walk-truncated", func() (string, error) {
			return exploreFingerprint(testaut.RandomWalk("w", 50, 0.5), 5)
		}},
		{"explore/channel-world-truncated", func() (string, error) {
			w := psioa.MustCompose(channel.Env("x", 1), channel.Real("x"), channel.Eavesdropper("x"))
			return exploreFingerprint(w, 7)
		}},
	}
}

// kernelPins are the golden fingerprint hashes captured from the seed
// (pre-optimization) kernels.
var kernelPins = map[string]string{
	"measure/counter-seq":     "2b56407562803107d92688c64b093f1c18c1b086c5a79153ef104f9d5674cb86",
	"measure/walk-greedy":     "59789ee3e1a7536e41484655f81676cf6f62e810033b4dbf35e7a0c0050cbcc0",
	"measure/coins-random":    "912b24e2df66f7a1a49b1f7c27862a7b65a27f322b1ce37bdd8316a36fdbb93f",
	"measure/ledger-priority": "852b21248383f72122fe7f37a3e7258690823ee2b170dac47fdfc426ff536282",
	"measure/depth-zero":      "e020509bfe71c0fda3b2273589d992272ceba775b7366e428b209ff758950531",
	"sample/walk-greedy":      "e99e43fefe78568e1b337c6b98bb78c1f959863487be0f07136d11d6e80ad2b2",
	"sample/coins-random":     "947552f461f5c1ceb2715f177b5252c75c88c3951d49d95d0487823fd63de7a9",
	"explore/channel-world":   "8c374ed9566b073397962485cacd251a960ed0f2bd19a4135244829540d3d41e",
	"explore/walk-truncated":  "c4e1398c24f1defed3cd320836acf101beba28b5567d0c41c09656b67e5d82f2",
	// Captured from the product-measure exploration that the support walk
	// replaced: a truncated product pins discovery order at the cut.
	"explore/channel-world-truncated": "0f29645994912509fb2206b5e0039ccd9c15a064e60476f339853dae2cffca9f",
}

func TestKernelPins(t *testing.T) {
	printMode := os.Getenv("PIN_PRINT") != ""
	for _, c := range kernelPinCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			text, err := c.text()
			if err != nil {
				t.Fatal(err)
			}
			got := pinHash(text)
			if printMode {
				t.Logf("golden %q: %q (%d bytes of text)", c.name, got, len(text))
				return
			}
			want, ok := kernelPins[c.name]
			if !ok {
				t.Fatalf("no golden recorded for %q (got %s)", c.name, got)
			}
			if got != want {
				t.Errorf("kernel fingerprint drifted from the seed implementation:\ncase %s\n got %s\nwant %s\nrun with PIN_PRINT=1 to inspect; goldens may only change with an intended semantic change", c.name, got, want)
			}
		})
	}
}
