package psioa_test

import (
	"sync"
	"testing"

	"repro/internal/bounded"
	"repro/internal/engine"
	"repro/internal/protocols/ledger"
	"repro/internal/psioa"
)

// twoLedgers is the plain composition of a direct and a parity ledger
// host with two subchains each: 903 states.
func twoLedgers() *psioa.Product {
	x1, _ := ledger.Host("a", 2, ledger.Direct)
	x2, _ := ledger.Host("b", 2, ledger.Parity)
	return psioa.MustCompose(x1, x2)
}

// twoLedgersFingerprint is engine.Fingerprint(twoLedgers(), 0), as it was
// when every signature entry composed its signature on creation.
const twoLedgersFingerprint = "c95cae37b67a30de41ab030b53247c2a"

// composedSig is Def 2.4's signature of p at q, from its components.
func composedSig(p *psioa.Product, q psioa.State) psioa.Signature {
	qs := p.Split(q)
	sigs := make([]psioa.Signature, len(qs))
	for i, c := range p.Components() {
		sigs[i] = c.Sig(qs[i])
	}
	return psioa.ComposeSignatures(sigs)
}

// TestDescribeComposesNoSignature: describing a product reads only its
// signature entries' sorted actions, so it composes no signature; an
// Explore and a fingerprint of the same product afterwards compose them
// and see what they saw when entries composed on creation.
func TestDescribeComposesNoSignature(t *testing.T) {
	p := twoLedgers()
	if _, err := bounded.Describe(p, 100000); err != nil {
		t.Fatal(err)
	}
	if entries, composed := p.SigEntries(); entries == 0 || composed != 0 {
		t.Fatalf("describing made %d signature entries and composed %d signatures, want some and none", entries, composed)
	}
	ex, err := psioa.Explore(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ex.States {
		if want := composedSig(p, q); !ex.Sigs[q].Equal(want) {
			t.Fatalf("Explore: Sigs[%q] = %v, want %v", q, ex.Sigs[q], want)
		}
	}
	for _, a := range []*psioa.Product{p, twoLedgers()} {
		if fp, err := engine.Fingerprint(a, 0); err != nil || fp != twoLedgersFingerprint {
			t.Fatalf("Fingerprint = %s, %v, want %s", fp, err, twoLedgersFingerprint)
		}
	}
}

// TestProductSigConcurrent: goroutines calling Sig on one shared product,
// cold or after a describe left its entries uncomposed, each see Def 2.4's
// signature at every state, and every entry ends up composed once.
func TestProductSigConcurrent(t *testing.T) {
	ex, err := psioa.Explore(twoLedgers(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ex.States)
	for _, describe := range []bool{false, true} {
		p := twoLedgers()
		if describe {
			if _, err := bounded.Describe(p, 100000); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range n {
					q := ex.States[(i+g*n/4)%n]
					if got := p.Sig(q); !got.Equal(ex.Sigs[q]) {
						t.Errorf("describe %v: Sig(%q) = %v, want %v", describe, q, got, ex.Sigs[q])
						return
					}
				}
			}()
		}
		wg.Wait()
		if entries, composed := p.SigEntries(); composed != entries {
			t.Errorf("describe %v: %d of %d entries composed", describe, composed, entries)
		}
	}
}
