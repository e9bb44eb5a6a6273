package engine

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/obs"
	"repro/internal/psioa"
)

// DefaultFingerprintLimit bounds the exploration a fingerprint is computed
// from. Automata larger than this still fingerprint (the hash covers the
// first DefaultFingerprintLimit states plus a truncation marker), but
// distinct automata that agree on that fragment would collide, so cache
// users working with larger systems should raise the limit.
const DefaultFingerprintLimit = 1 << 15

var cFingerprints = obs.C("engine.fingerprints")

// Fingerprint computes a canonical identity for an automaton: a hash over
// its ID, start state, and the sorted reachable transition structure
// (states, signatures, and transition measures, all in canonical order, the
// same representation internal/codec's encodings canonicalise). Two automata
// with equal fingerprints behave identically on their explored fragment, so
// the fingerprint is a sound memoization key for Measure and FDist
// results. limit <= 0 means DefaultFingerprintLimit.
func Fingerprint(a psioa.PSIOA, limit int) (string, error) {
	if limit <= 0 {
		limit = DefaultFingerprintLimit
	}
	ex, err := psioa.Explore(a, limit)
	if err != nil {
		return "", err
	}
	cFingerprints.Inc()
	// The hash input is staged in one buffer and flushed in chunks, so
	// writing a field allocates nothing; FNV is a streaming hash, so the
	// chunking does not change the sum.
	h := fnv.New128a()
	var buf []byte
	wr := func(s string) {
		buf = append(append(buf, s...), 0)
	}
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
		for _, act := range psioa.SortedAll(sig) {
			wr("t")
			wr(string(act))
			d := a.Trans(q, act)
			// Lexicographic successor order, shared with the transition
			// measure's cached sorted view instead of copied and re-sorted
			// per call.
			succs, ps := d.SupportAndProbs()
			for i, q2 := range succs {
				wr(string(q2))
				buf = append(strconv.AppendFloat(buf, ps[i], 'g', -1, 64), 0)
			}
		}
		if len(buf) >= 1<<12 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	fp := fmt.Sprintf("%x", h.Sum(nil))
	if ex.Truncated {
		// A truncated exploration identifies only the explored fragment;
		// mark it so such keys are visibly partial.
		fp += "!trunc"
	}
	return fp, nil
}
