package engine

import (
	"context"
	"encoding/hex"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"sync"

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
// the fingerprint is a sound memoization key for exact answers. limit <= 0 means DefaultFingerprintLimit.
//
// It is one psioa.Walk: the visitor renders each state's part of the hash
// input as the walk reaches it, from the roles and successors the walk
// supplies, so fingerprinting a product composes no signature and builds
// no transition measure.
func Fingerprint(a psioa.PSIOA, limit int) (string, error) { return fingerprint(nil, a, limit) }

// fpPool keeps fingerprinters, whose buffers are most of what one allocates.
var fpPool = sync.Pool{New: func() any { return new(fingerprinter) }}

// fingerprint is Fingerprint walking under ctx, uncharged.
func fingerprint(ctx context.Context, a psioa.PSIOA, limit int) (string, error) {
	if limit <= 0 {
		limit = DefaultFingerprintLimit
	}
	v := fpPool.Get().(*fingerprinter)
	defer v.release()
	ex, err := psioa.Walk(ctx, a, limit, nil, v)
	if err != nil {
		return "", err
	}
	cFingerprints.Inc()
	for i := range v.chunks {
		if i+1 < len(v.chunks) {
			v.chunks[i].end = v.chunks[i+1].start
		} else {
			v.chunks[i].end = len(v.buf)
		}
	}
	slices.SortFunc(v.chunks, func(x, y fpChunk) int { return strings.Compare(string(x.q), string(y.q)) })
	// FNV is a streaming hash, so writing the input chunk by chunk does
	// not change the sum.
	h := fnv.New128a()
	h.Write([]byte(a.ID() + "\x00" + string(a.Start()) + "\x00"))
	for _, c := range v.chunks {
		h.Write(v.buf[c.start:c.end])
	}
	fp := hex.EncodeToString(h.Sum(nil))
	if ex.Truncated {
		// A truncated exploration identifies only the explored fragment;
		// mark it so such keys are visibly partial.
		fp += "!trunc"
	}
	return fp, nil
}

// fingerprinter is Fingerprint's visitor. It renders each dequeued
// state's hash input into buf in walk order: the state, its signature's
// in, out and int actions, and per sorted action the transition's support
// in encoding order with masses, every field NUL-terminated. Fingerprint
// then hashes the chunks in sorted-state order.
type fingerprinter struct {
	buf    []byte
	chunks []fpChunk
	acts   []psioa.Action
	succ   []psioa.Succ // one successor list, sorted by encoding
}

// fpChunk is the rendering of state q: buf[start:end].
type fpChunk struct {
	q          psioa.State
	start, end int
}

// release empties v, keeping its buffers, and returns it to fpPool.
func (v *fingerprinter) release() {
	clear(v.chunks)
	*v = fingerprinter{buf: v.buf[:0], chunks: v.chunks[:0]}
	fpPool.Put(v)
}

func (v *fingerprinter) wr(s string) { v.buf = append(append(v.buf, s...), 0) }

// State renders q and its signature. acts is sig^ sorted, so filtering it
// by each role yields that set sorted.
func (v *fingerprinter) State(_ uint32, q psioa.State, acts []psioa.Action, roles []psioa.Role) {
	v.chunks = append(v.chunks, fpChunk{q: q, start: len(v.buf)})
	v.acts = acts
	v.wr("q")
	v.wr(string(q))
	for i, tag := range [...]string{"in", "out", "int"} {
		v.wr(tag)
		for k, act := range acts {
			if roles[k]&(psioa.In<<i) != 0 {
				v.wr(string(act))
			}
		}
	}
}

// Trans renders (q, acts[k]) and its successors in encoding order.
func (v *fingerprinter) Trans(k int, succ []psioa.Succ) {
	v.wr("t")
	v.wr(string(v.acts[k]))
	v.succ = append(v.succ[:0], succ...)
	slices.SortFunc(v.succ, func(x, y psioa.Succ) int { return strings.Compare(string(x.Q), string(y.Q)) })
	for _, s := range v.succ {
		v.wr(string(s.Q))
		v.buf = append(strconv.AppendFloat(v.buf, s.P, 'g', -1, 64), 0)
	}
}
