package sched

import (
	"repro/internal/intern"
	"repro/internal/measure"
	"repro/internal/psioa"
)

// Shared-choice caches for the simulation hot path.
//
// The deterministic schedulers (Greedy, Sequence, Priority) return a Dirac
// choice on every step, and Random returns the uniform choice over the
// memoized enabled-action slice of the current signature. Sample draws one
// scheduler choice per executed action, so building a fresh distribution
// (map, Dist, CDF) per step dominates sampling. Choices returned by
// Scheduler.Choose are read-only by contract — every consumer in this
// module only reads them (Measure, Sample, Mixture, FactorsThrough) — so
// identical choices can be shared. Both caches are read-mostly concurrent
// maps (steady-state hits take no lock, so parallel shards stop
// serializing on an RWMutex per step), bounded and dropped wholesale when
// full, like the psioa sort memo.

const choiceCacheLimit = 1 << 16

// haltChoice is the shared empty choice (halt with probability 1) that the
// built-in schedulers return, so halting at the bound allocates nothing.
// It must be treated as read-only; Halt returns a fresh one to fill.
var haltChoice = Halt()

var diracChoices = intern.NewRM[psioa.Action, *Choice](choiceCacheLimit)

// diracChoice returns the shared Dirac choice on a. The result must be
// treated as read-only. Racing first touches may briefly create duplicate
// (equivalent) choices; last write wins, as in the locked cache this
// replaces.
func diracChoice(a psioa.Action) *Choice {
	if c, ok := diracChoices.Get(a); ok {
		return c
	}
	c := measure.Dirac(a)
	diracChoices.Set(a, c)
	return c
}

// uniformKey identifies an enabled-action slice by identity. The entry pins
// the slice, so a live key's backing array can never be recycled for a
// different slice (same soundness argument as the psioa sort memo).
type uniformKey struct {
	first *psioa.Action
	n     int
}

type uniformEntry struct {
	acts []psioa.Action
	c    *Choice
}

var uniformChoices = intern.NewRM[uniformKey, uniformEntry](choiceCacheLimit)

// uniformChoice returns the shared uniform choice over the non-empty acts
// slice, which must be immutable (the sort-memo slices are). The result
// must be treated as read-only.
func uniformChoice(acts []psioa.Action) *Choice {
	key := uniformKey{first: &acts[0], n: len(acts)}
	if ent, ok := uniformChoices.Get(key); ok {
		return ent.c
	}
	c := measure.Uniform(acts)
	uniformChoices.Set(key, uniformEntry{acts: acts, c: c})
	return c
}
