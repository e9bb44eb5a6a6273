package bounded

import (
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/psioa"
)

// Counter accumulates the work performed by an instrumented automaton. Work
// is measured in bits touched per query — the executable analogue of the
// running time of the decoding machines M_sig, M_trans, M_state of Def 4.1.
// All fields are updated atomically so instrumented automata remain safe
// under concurrent benchmarks.
type Counter struct {
	// SigQueries and TransQueries count evaluations.
	SigQueries   atomic.Int64
	TransQueries atomic.Int64
	// Work is the total number of bits read or written across all queries.
	Work atomic.Int64
	// MaxQueryWork is the largest single-query work observed — the
	// per-query time bound the lemmas speak about.
	MaxQueryWork atomic.Int64
}

func (c *Counter) charge(bits int64) {
	c.Work.Add(bits)
	for {
		cur := c.MaxQueryWork.Load()
		if bits <= cur || c.MaxQueryWork.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// Instrumented wraps a PSIOA and charges every Sig/Trans evaluation to a
// Counter.
type Instrumented struct {
	inner psioa.PSIOA
	c     *Counter
}

// Instrument wraps a with work accounting on counter c.
func Instrument(a psioa.PSIOA, c *Counter) *Instrumented {
	return &Instrumented{inner: a, c: c}
}

// ID implements PSIOA.
func (i *Instrumented) ID() string { return i.inner.ID() }

// Start implements PSIOA.
func (i *Instrumented) Start() psioa.State { return i.inner.Start() }

// Sig implements PSIOA, charging the bits of the state read and the
// signature produced.
func (i *Instrumented) Sig(q psioa.State) psioa.Signature {
	sig := i.inner.Sig(q)
	bits := int64(codec.BitLen(string(q)))
	for a := range sig.All() {
		bits += int64(codec.BitLen(string(a)))
	}
	i.c.SigQueries.Add(1)
	i.c.charge(bits)
	return sig
}

// Trans implements PSIOA, charging the bits of the inputs and of the
// produced transition representation.
func (i *Instrumented) Trans(q psioa.State, a psioa.Action) *psioa.Dist {
	eta := i.inner.Trans(q, a)
	bits := int64(TransBits(q, a, eta))
	i.c.TransQueries.Add(1)
	i.c.charge(bits)
	return eta
}

// CompatAt delegates compatibility checking to the wrapped automaton.
func (i *Instrumented) CompatAt(q psioa.State) error {
	if cc, ok := i.inner.(interface{ CompatAt(psioa.State) error }); ok {
		return cc.CompatAt(q)
	}
	return nil
}

// QueryWork runs one full exploration of the automaton (bounded by limit
// states) under instrumentation and reports the maximum per-query work —
// the empirical "time bound" b of Def 4.1 items 2–3 for our evaluators.
func QueryWork(a psioa.PSIOA, limit int) (maxPerQuery int64, total int64, err error) {
	var c Counter
	inst := Instrument(a, &c)
	if _, err := psioa.Explore(inst, limit); err != nil {
		return 0, 0, err
	}
	return c.MaxQueryWork.Load(), c.Work.Load(), nil
}
