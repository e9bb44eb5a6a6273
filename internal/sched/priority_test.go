package sched_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// expandTemplate is the reference ranking: the template expanded over the
// world's whole sorted alphabet, each entry contributing every action it
// prefixes, in order.
func expandTemplate(alpha []psioa.Action, tmpl []string) []psioa.Action {
	var order []psioa.Action
	for _, prefix := range tmpl {
		for _, a := range alpha {
			if strings.HasPrefix(string(a), prefix) {
				order = append(order, a)
			}
		}
	}
	return order
}

// referenceChoose is the reference choice at sig: the Dirac on the first
// action of the expanded order that is a candidate there, else halt.
func referenceChoose(sig psioa.Signature, order []psioa.Action, localOnly bool) *sched.Choice {
	for _, a := range order {
		if sig.Out.Has(a) || sig.Int.Has(a) || (!localOnly && sig.In.Has(a)) {
			return measure.Dirac(a)
		}
	}
	return sched.Halt()
}

// fuzzWorld returns a generated world: a random automaton when pick
// selects slot 0, else a SyncWorlds family at a seed from its range.
func fuzzWorld(seed, pick uint64) psioa.PSIOA {
	worlds := testaut.SyncWorlds()
	k := pick % uint64(len(worlds)+1)
	if k == 0 {
		spec := testaut.RandomSpec{States: 2 + int(seed%15), Actions: 1 + int(seed/15%12), Branch: 3, InputShare: 0.3}
		return testaut.RandomAutomaton("r", spec, rng.New(seed).Uint64)
	}
	sw := worlds[k-1]
	return sw.Make(1 + seed%sw.Seeds)
}

// fuzzTemplate decodes a template from byte pairs over the sorted
// alphabet: the first byte picks an action, the second a prefix length of
// it, from "" to the exact name, or the name plus a suffix that matches
// nothing. Repeated, overlapping and empty entries all arise.
func fuzzTemplate(alpha []psioa.Action, raw []byte) []string {
	var tmpl []string
	for i := 0; i+1 < len(raw) && len(tmpl) < 8; i += 2 {
		if len(alpha) == 0 {
			tmpl = append(tmpl, "")
			continue
		}
		a := string(alpha[int(raw[i])%len(alpha)])
		switch n := int(raw[i+1]) % (len(a) + 2); {
		case n <= len(a):
			tmpl = append(tmpl, a[:n])
		default:
			tmpl = append(tmpl, a+"~")
		}
	}
	return tmpl
}

// FuzzPriorityTemplates holds the prefix-ranked Priority that
// PrefixPrioritySchema enumerates equal, at every reachable state, to the
// reference that expands the template over the world's full alphabet.
func FuzzPriorityTemplates(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, pick uint64, raw []byte, localOnly bool) {
		w := fuzzWorld(seed, pick)
		ex, err := psioa.Explore(w, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Truncated {
			t.Fatalf("%s: reference exploration truncated", w.ID())
		}
		alpha := ex.Acts.Sorted()
		tmpl := fuzzTemplate(alpha, raw)
		order := expandTemplate(alpha, tmpl)
		ss, err := (&sched.PrefixPrioritySchema{Templates: [][]string{tmpl}}).Enumerate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := ss[0].(*sched.Priority)
		p.LocalOnly = localOnly
		for _, q := range ex.States {
			got := p.ChooseAt(q, 0)
			want := referenceChoose(ex.Sigs[q], order, localOnly)
			if !sameChoice(got, want) {
				t.Fatalf("%s template %q local %v at %q: %v, want %v", w.ID(), tmpl, localOnly, q, got, want)
			}
		}
	})
}

// sigCounter counts the signature reads of the automaton it wraps.
type sigCounter struct {
	psioa.PSIOA
	n int
}

func (c *sigCounter) Sig(q psioa.State) psioa.Signature {
	c.n++
	return c.PSIOA.Sig(q)
}

// TestPrefixPriorityEnumerateReadsNoSignature: enumeration only wraps the
// templates, so it never reads the automaton.
func TestPrefixPriorityEnumerateReadsNoSignature(t *testing.T) {
	w := &sigCounter{PSIOA: testaut.SyncWorlds()[0].Make(1)}
	tmpls := [][]string{{"m", "int_"}, {""}, {}}
	ss, err := (&sched.PrefixPrioritySchema{Templates: tmpls}).Enumerate(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.n != 0 {
		t.Errorf("Enumerate read %d signatures, want 0", w.n)
	}
	for i, s := range ss {
		if got, want := fmt.Sprint(s.(*sched.Priority).Order), fmt.Sprint(tmpls[i]); got != want {
			t.Errorf("scheduler %d order %s, want the template %s", i, got, want)
		}
	}
}

// toggles composes n one-shot toggles t00, t01, ... with a watcher that
// counts them as inputs and outputs z once all n have fired: 2^n + 1
// reachable states, and z is enabled only at the state where every
// toggle is on.
func toggles(n int) psioa.PSIOA {
	auts := make([]psioa.PSIOA, 0, n+1)
	ts := make([]psioa.Action, n)
	for i := range ts {
		ts[i] = psioa.Action(fmt.Sprintf("t%02d", i))
		b := psioa.NewBuilder(fmt.Sprintf("tog%02d", i), "0")
		b.AddState("0", psioa.NewSignature(nil, []psioa.Action{ts[i]}, nil))
		b.AddState("1", psioa.EmptySignature())
		b.AddDet("0", ts[i], "1")
		auts = append(auts, b.MustBuild())
	}
	count := func(c int) psioa.State { return psioa.State(fmt.Sprint(c)) }
	b := psioa.NewBuilder("watch", count(0))
	for c := 0; c < n; c++ {
		b.AddState(count(c), psioa.NewSignature(ts, nil, nil))
		for _, t := range ts {
			b.AddDet(count(c), t, count(c+1))
		}
	}
	b.AddState(count(n), psioa.NewSignature(nil, []psioa.Action{"z"}, nil))
	b.AddState("done", psioa.EmptySignature())
	b.AddDet(count(n), "z", "done")
	return psioa.MustCompose(append(auts, b.MustBuild())...)
}

// TestPriorityFiresPastAlphabetCap: z is enabled only at the last of the
// 16,385 states of 14 toggles, beyond any 10,000-state alphabet walk, and
// a bound-15 priority scheduler still fires it.
func TestPriorityFiresPastAlphabetCap(t *testing.T) {
	w := toggles(14)
	ss, err := (&sched.PrefixPrioritySchema{Templates: [][]string{{"z", "t"}}}).Enumerate(w, 15)
	if err != nil {
		t.Fatal(err)
	}
	alpha := psioa.NewFrag(w.Start())
	for {
		k, _ := ss[0].Choose(alpha).SupportAndProbs()
		if len(k) == 0 {
			break
		}
		next := psioa.Steps(w, alpha.LState(), k[0])
		alpha = alpha.Extend(k[0], next[0])
	}
	if acts := alpha.Actions(); len(acts) != 15 || acts[14] != "z" {
		t.Errorf("run %v, want 15 steps ending in z", acts)
	}
}

// TestObliviousSchemaRejectsTruncatedAlphabet: an alphabet walk that hits
// its state limit is a cap error, not a silently smaller alphabet.
func TestObliviousSchemaRejectsTruncatedAlphabet(t *testing.T) {
	_, err := (&sched.ObliviousSchema{}).Enumerate(toggles(14), 1)
	if !errors.Is(err, sched.ErrEnumerationCap) {
		t.Errorf("Enumerate = %v, want ErrEnumerationCap", err)
	}
}
