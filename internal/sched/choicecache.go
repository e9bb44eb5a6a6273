package sched

import (
	"repro/internal/intern"
	"repro/internal/measure"
	"repro/internal/psioa"
)

// Shared choices for the simulation hot path.
//
// The deterministic schedulers (Greedy, Sequence, Priority) return a Dirac
// choice on every step. Choices returned by Scheduler.Choose are read-only
// by contract — every consumer in this module only reads them (Measure,
// Sample, Mixture, FactorsThrough) — so one Dirac per action is shared,
// keyed by the action itself. The cache is a read-mostly concurrent map
// (steady-state hits take no lock), bounded and dropped wholesale when
// full. Random's uniform choice is built per call: the step table compiles
// it once per (state, depth).

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
