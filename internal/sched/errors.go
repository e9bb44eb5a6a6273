package sched

import "errors"

// Sentinel errors for the failure modes of measure expansion, sampling and
// schema enumeration. Every error returned by this package that matches
// one of these modes wraps the sentinel, so callers can classify failures
// with errors.Is without parsing messages:
//
//	if _, err := sched.Measure(a, s, depth); errors.Is(err, sched.ErrDepthExceeded) {
//	    // the scheduler is not depth-bounded — widen the bound or reject it
//	}
var (
	// ErrOverMass reports a scheduler choice whose total mass exceeds 1
	// (not a sub-probability distribution, violating Def 3.1).
	ErrOverMass = errors.New("scheduler choice mass exceeds 1")
	// ErrDepthExceeded reports a scheduler still assigning mass at the
	// expansion or sampling depth bound (not b-bounded per Def 4.6).
	ErrDepthExceeded = errors.New("scheduler exceeds depth bound")
	// ErrDisabledAction reports a scheduler assigning mass to an action
	// that is not enabled at the fragment's last state.
	ErrDisabledAction = errors.New("scheduler chose a disabled action")
	// ErrSubStochastic reports an automaton transition measure with total
	// mass below 1 encountered while sampling.
	ErrSubStochastic = errors.New("sub-stochastic transition measure")
	// ErrEnumerationCap reports a schema whose enumeration would exceed
	// one of the package's safety caps: on the schedulers it enumerates,
	// or on the states of the walk that finds its alphabet.
	ErrEnumerationCap = errors.New("schema enumeration exceeds cap")
	// ErrNotOblivious reports a scheduler that does not factor through the
	// view it claims obliviousness with respect to.
	ErrNotOblivious = errors.New("scheduler does not factor through view")
	// ErrTaskNondeterministic reports a task enabling more than one action
	// at some state, violating next-transition determinism.
	ErrTaskNondeterministic = errors.New("task violates next-transition determinism")
)
