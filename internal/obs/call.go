package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Layer is one timed layer of the pipeline. Its name is the name of its
// span, of its process histogram (name + ".us") and of its RunReport
// phase row.
type Layer uint8

// The timed layers, in run-report order.
const (
	LayerMeasure    Layer = iota // sched.MeasureOpts: tree expansion
	LayerSample                  // sched.SampleImageOpts, SampleStateImageOpts
	LayerDAG                     // sched.MeasureDAGOpts: state-collapsed propagation
	LayerExplore                 // psioa.Walk: bounded reachability analysis
	LayerFDist                   // insight.FDistOpts
	LayerImplements              // core.Implements, core.ImplementsWitness
	LayerEmulation               // core.SecureEmulates
	LayerPoolMap                 // engine.Pool.Map
	LayerExperiment              // experiments.Instrumented
	LayerAnswer                  // engine.Runner.Run: answer-store lookup and publish
	numLayers
)

var layerNames = [numLayers]string{
	"sched.measure", "sched.sample", "sched.measure.dag", "psioa.explore",
	"insight.fdist", "core.implements", "core.emulation", "engine.pool.map", "experiment",
	"engine.answer",
}

// layerHists caches each layer's histogram in the Default registry,
// resolved on the layer's first call.
var layerHists [numLayers]atomic.Pointer[Histogram]

// String returns the layer's name.
func (l Layer) String() string { return layerNames[l] }

// Hist returns the name of the layer's process histogram, l + ".us".
func (l Layer) Hist() string { return layerNames[l] + ".us" }

func (l Layer) hist() *Histogram {
	if h := layerHists[l].Load(); h != nil {
		return h
	}
	h := Default.Histogram(l.Hist())
	layerHists[l].Store(h)
	return h
}

// spanIDs issues process-unique span correlation ids.
var spanIDs atomic.Int64

// Call times one call of a layer. Enter reads the clock once and End once,
// and that one duration feeds every sink: the span pair when tracing was
// enabled at Enter, the layer's process histogram always, and the phase
// row of the job meter ctx carries. Write
//
//	c := obs.Enter(ctx, obs.LayerMeasure, s.Name())
//	defer c.End()
//
// so that every exit, an error or a budget stop included, counts once.
type Call struct {
	layer  Layer
	attr   string
	tr     Tracer // nil unless tracing was enabled at Enter
	id     int64
	m      *Meter
	levels int
	start  time.Time
}

// Enter opens a call of layer l. attr labels it (the scheduler, automaton
// or experiment); it is the span's Attr and the Name of its shard events.
func Enter(ctx context.Context, l Layer, attr string) Call {
	c := Call{layer: l, attr: attr, m: MeterFrom(ctx)}
	if tr := Active(); tr.Enabled() {
		c.tr, c.id = tr, spanIDs.Add(1)
		tr.Emit(Event{Kind: KindSpanBegin, Name: l.String(), Attr: attr, Span: c.id})
	}
	c.start = time.Now()
	return c
}

// Traced reports whether tracing was enabled at Enter: whether the call's
// own events (steps, halts, probes) should be emitted.
func (c *Call) Traced() bool { return c.tr != nil }

// Timed reports whether the call's finer telemetry — shard and level rows
// and the clock reads feeding them — has a reader: an enabled tracer or a
// job meter. Undisturbed calls skip it and keep the fast path.
func (c *Call) Timed() bool { return c.tr != nil || c.m != nil }

// Lap starts a stopwatch for one shard or level of the call. It reads the
// clock only when the call is Timed; the Lap of an untimed call reads 0.
func (c *Call) Lap() Lap {
	if !c.Timed() {
		return Lap{}
	}
	return Lap{time.Now()}
}

// Lap is a stopwatch started by Call.Lap.
type Lap struct{ t time.Time }

// US returns the µs since the lap started, or 0 for an untimed call's lap.
func (l Lap) US() int64 {
	if l.t.IsZero() {
		return 0
	}
	return time.Since(l.t).Microseconds()
}

// Level reports one completed level of the call: widths[i] is the
// index-span width handed to shard i, items[i] the items it expanded and
// wallUS[i] its busy µs. The trace gets one sched.shard event per shard
// (Attr "L<level>.S<shard>", N = items, parent = the call's span) and the
// meter the same rows (see Meter.Report), with the level as its depth
// high-water mark. Levels are numbered from 0 in call order.
func (c *Call) Level(widths, items, wallUS []int64) {
	if c.tr != nil {
		for i := range items {
			c.tr.Emit(Event{Kind: KindShard, Name: c.attr, Attr: fmt.Sprintf("L%d.S%d", c.levels, i),
				N: items[i], Dur: wallUS[i], Parent: c.id})
		}
	}
	c.m.level(c.levels, widths, items, wallUS)
	c.levels++
}

// End closes the call and returns its duration. Call it exactly once.
func (c *Call) End() time.Duration {
	d := time.Since(c.start)
	us := d.Microseconds()
	if c.tr != nil {
		c.tr.Emit(Event{Kind: KindSpanEnd, Name: c.layer.String(), Span: c.id, Dur: us})
	}
	c.layer.hist().Observe(float64(us))
	c.m.phase(c.layer, us)
	return d
}
