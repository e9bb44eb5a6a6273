package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/psioa"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/testaut"
)

// TestNamesMatchFmt holds the scheduler names, which key the engine cache
// and the durable store, byte-equal to their fmt.Sprintf rendering, on
// generated action lists whose names hold spaces, brackets, parentheses,
// the empty name and non-ASCII bytes.
func TestNamesMatchFmt(t *testing.T) {
	names := append(testaut.AdversarialNames(), "a b", "[", "]", "[x y]", "(", ")", "%d", "%v", "seq[")
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		var acts []psioa.Action
		if i > 0 {
			acts = []psioa.Action{}
		}
		for n := r.IntN(6); n > 0; n-- {
			acts = append(acts, psioa.Action(names[r.IntN(len(names))]))
		}
		bound := r.IntN(40) - 3
		seq := &sched.Sequence{Acts: acts}
		for _, c := range []struct{ got, want string }{
			{seq.Name(), fmt.Sprintf("seq%v", acts)},
			{(&sched.Priority{Order: acts, Bound: bound}).Name(), fmt.Sprintf("priority[%d]%v", bound, acts)},
			{(&sched.Random{Bound: bound}).Name(), fmt.Sprintf("random[%d]", bound)},
			{(&sched.Greedy{Bound: bound}).Name(), fmt.Sprintf("greedy[%d]", bound)},
			{(&sched.Bounded{Inner: seq, B: bound}).Name(), fmt.Sprintf("bounded[%d](%s)", bound, fmt.Sprintf("seq%v", acts))},
		} {
			if c.got != c.want {
				t.Fatalf("acts %q, bound %d: name %q, fmt renders %q", acts, bound, c.got, c.want)
			}
		}
	}
}
