// Package obs is the observability layer of the reproduction: structured
// execution tracing, a registry of atomic counters/gauges/histograms, a
// JSONL trace writer, and profiling hooks for the command-line tools.
//
// The package is zero-dependency (standard library only) and is designed
// so that instrumented hot paths cost ~nothing when tracing is disabled:
// the default tracer is a no-op whose Enabled method returns false, and
// every instrumentation site guards event construction behind that check.
// Metrics are always on — they are single atomic adds, typically batched
// per call rather than per inner-loop iteration.
//
// Conventions:
//
//   - tracer events carry a Kind (what happened), a Name (the subject:
//     automaton, scheduler, experiment), an optional Attr (secondary
//     label: action, status), and numeric payloads N (count/length) and
//     V (mass/distance);
//   - spans correlate a begin/end pair through a process-unique id and
//     report their wall-clock duration in microseconds on the end event;
//   - metric names are dotted paths rooted at the instrumented package,
//     e.g. "psioa.explore.states" or "sched.measure.steps".
package obs

import (
	"sync/atomic"
	"time"
)

// Kind classifies a trace event.
type Kind string

// The event kinds emitted by the instrumented pipeline.
const (
	// KindSpanBegin and KindSpanEnd bracket a timed region; they share a
	// Span id and the end event carries the duration.
	KindSpanBegin Kind = "span.begin"
	KindSpanEnd   Kind = "span.end"
	// KindSchedStep is one scheduler choice expanded during exact measure
	// computation (Name = scheduler, Attr = action, N = fragment length).
	KindSchedStep Kind = "sched.step"
	// KindSchedHalt is halting mass assigned to a fragment (V = mass).
	KindSchedHalt Kind = "sched.halt"
	// KindStateFound is a state discovered by bounded BFS exploration.
	KindStateFound Kind = "explore.state"
	// KindTransition is a transition expanded during exploration.
	KindTransition Kind = "explore.transition"
	// KindProbe is one insight-function evaluation over an execution
	// measure (Name = insight id, N = support size).
	KindProbe Kind = "insight.probe"
	// KindPair is one (environment, scheduler) pair decided by an
	// implementation-relation check (V = achieved distance).
	KindPair Kind = "implements.pair"
	// KindEmuRound is one adversary/simulator round of a secure-emulation
	// check (Name = adversary id, Attr = verdict).
	KindEmuRound Kind = "emulation.round"
	// KindExperiment is one completed experiment of the E1–E18, E20, E22
	// suite.
	KindExperiment Kind = "experiment"
	// KindShard is one shard of one level of a parallel kernel (Name =
	// scheduler, Attr = "L<level>.S<shard>", N = items expanded, Dur =
	// shard wall μs, Parent = the kernel span id).
	KindShard Kind = "sched.shard"
)

// Event is one structured trace record. The zero value of every optional
// field is omitted from the JSONL encoding.
type Event struct {
	// T is the event time in microseconds since the tracer started. It is
	// stamped by the tracer, not the caller.
	T int64 `json:"t_us"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Name is the subject: automaton id, scheduler name, experiment id.
	Name string `json:"name,omitempty"`
	// Attr is a secondary label: action, status, counterpart.
	Attr string `json:"attr,omitempty"`
	// N is an integer payload: depth, count, support size.
	N int64 `json:"n,omitempty"`
	// V is a float payload: probability mass, distance.
	V float64 `json:"v,omitempty"`
	// Span correlates span.begin/span.end pairs.
	Span int64 `json:"span,omitempty"`
	// Parent is the id of the enclosing span (span.begin and events that
	// attribute themselves to a span); zero means a root span / no parent.
	Parent int64 `json:"parent,omitempty"`
	// Dur is the span duration in microseconds (span.end only).
	Dur int64 `json:"dur_us,omitempty"`
}

// Tracer receives structured events. Implementations must be safe for
// concurrent use. Hot paths must guard Emit calls behind Enabled so that
// the disabled case costs one interface call and a branch.
type Tracer interface {
	// Enabled reports whether events are recorded at all.
	Enabled() bool
	// Emit records one event. The tracer stamps Event.T itself.
	Emit(Event)
}

// Nop is the disabled tracer: Enabled is false and Emit discards.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// active holds the process-wide tracer; instrumented packages fetch it per
// operation so a tracer installed mid-run takes effect immediately.
var active atomic.Pointer[Tracer]

func init() {
	var t Tracer = Nop{}
	active.Store(&t)
}

// SetTracer installs t as the process-wide tracer; nil restores the no-op
// tracer. It returns the previous tracer so callers can chain or restore.
func SetTracer(t Tracer) Tracer {
	if t == nil {
		t = Nop{}
	}
	prev := active.Swap(&t)
	return *prev
}

// Active returns the process-wide tracer. The result is never nil.
func Active() Tracer { return *active.Load() }

// spanIDs issues process-unique span correlation ids.
var spanIDs atomic.Int64

// Span is a timed region begun with Begin. The zero Span (returned when
// tracing is disabled) is valid and End on it is a no-op, so callers can
// write `defer obs.Begin(...).End()` unconditionally.
type Span struct {
	tr     Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// Begin opens a root span when tracing is enabled and returns its handle.
func Begin(name, attr string) Span {
	return Span{}.Begin(name, attr)
}

// Begin opens a child span of s: the begin event carries s's id as Parent,
// so a SpanTree reconstructor can rebuild the call hierarchy from the
// trace. The zero Span is a valid parent (the child becomes a root), which
// keeps the disabled path allocation-free: when tracing is off every span
// is the zero Span and opening children off it costs one branch.
func (s Span) Begin(name, attr string) Span {
	tr := Active()
	if !tr.Enabled() {
		return Span{}
	}
	id := spanIDs.Add(1)
	tr.Emit(Event{Kind: KindSpanBegin, Name: name, Attr: attr, Span: id, Parent: s.id})
	return Span{tr: tr, id: id, parent: s.id, name: name, start: time.Now()}
}

// ID returns the span's correlation id (zero for the zero Span). Events
// emitted with Parent set to this id attribute themselves to the span.
func (s Span) ID() int64 { return s.id }

// End closes the span, emitting its duration. No-op on the zero Span.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.Emit(Event{Kind: KindSpanEnd, Name: s.name, Span: s.id, Parent: s.parent, Dur: time.Since(s.start).Microseconds()})
}
