package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// rootSpan names the span that encloses one traced job.
const rootSpan = "job"

// span is one timed call into a layer, made from the benchmark's side of the
// layer boundary. Calls too fine-grained to record one by one (PCA method
// calls, pairwise distances) are aggregated into the span that encloses them.
type span struct {
	ID     int                  `json:"id"`
	Parent int                  `json:"parent"` // -1 for a job's root span
	Job    int                  `json:"job"`
	Name   string               `json:"name"`
	Start  int64                `json:"start_ns"` // since the tracer started
	End    int64                `json:"end_ns"`
	Fine   map[string]*fineStat `json:"fine,omitempty"`
}

// fineStat is the count and total duration of one kind of fine-grained call.
type fineStat struct {
	N  int64 `json:"n"`
	NS int64 `json:"ns"`
}

// tracer keeps the spans of a traced run in memory; they are written out
// once, when the run ends. The in-process replays are single-goroutine and
// nest spans with begin/end; the daemon clients record finished spans with
// record. fine may be called from any goroutine.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	job    int
	spans  []*span
	open   []*span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]int64{}}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// begin opens a span nested in the innermost open one (a root span when
// none is open, which starts a new job).
func (t *tracer) begin(name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].ID
	} else {
		t.job++
	}
	s := &span{ID: len(t.spans), Parent: parent, Job: t.job, Name: name, Start: t.since(time.Now())}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	return s
}

// end closes s, which must be the innermost open span.
func (t *tracer) end(s *span) {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End = now
	t.open = t.open[:len(t.open)-1]
}

// call times fn as one span.
func (t *tracer) call(name string, fn func() error) error {
	s := t.begin(name)
	err := fn()
	t.end(s)
	return err
}

// fine charges one fine-grained call of duration d to the innermost open
// span.
func (t *tracer) fine(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) == 0 {
		return
	}
	s := t.open[len(t.open)-1]
	if s.Fine == nil {
		s.Fine = map[string]*fineStat{}
	}
	f := s.Fine[name]
	if f == nil {
		f = &fineStat{}
		s.Fine[name] = f
	}
	f.N++
	f.NS += d.Nanoseconds()
}

// count adds n to a work counter of the traced run (executions expanded,
// schedulers enumerated, ...).
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// record stores an already finished span and returns its id. parent < 0
// makes it the root of a new job.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	job := 0
	if parent < 0 {
		t.job++
		job = t.job
	} else {
		job = t.spans[parent].Job
	}
	s := &span{ID: len(t.spans), Parent: parent, Job: job, Name: name, Start: t.since(start), End: t.since(end)}
	t.spans = append(t.spans, s)
	return s.ID
}

// layerTimes is the traced run reduced to layers: self time and calls per
// span or fine-call name, and the summed duration of the jobs' root spans.
type layerTimes struct {
	selfNS map[string]int64
	calls  map[string]int64
	rootNS int64
	jobs   int
}

// layers computes each span's self time — its duration minus the part its
// child spans and aggregated fine calls cover — and sums it per name.
func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	lt := layerTimes{selfNS: map[string]int64{}, calls: map[string]int64{}}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
		for name, f := range s.Fine {
			covered[s.ID] += f.NS
			lt.selfNS[name] += f.NS
			lt.calls[name] += f.N
		}
	}
	for _, s := range t.spans {
		lt.selfNS[s.Name] += s.End - s.Start - covered[s.ID]
		lt.calls[s.Name]++
		if s.Parent < 0 {
			lt.rootNS += s.End - s.Start
			lt.jobs++
		}
	}
	return lt
}

// coverage is the share of the jobs' wall time that named layers account
// for: everything but the root spans' own self time.
func (lt layerTimes) coverage() float64 {
	if lt.rootNS == 0 {
		return 0
	}
	return float64(lt.rootNS-lt.selfNS[rootSpan]) / float64(lt.rootNS)
}

// pct is a layer's self time as a percentage of the jobs' wall time.
func (lt layerTimes) pct(name string) float64 {
	if lt.rootNS == 0 {
		return 0
	}
	return 100 * float64(lt.selfNS[name]) / float64(lt.rootNS)
}

// callsPerJob is a layer's call count per traced job.
func (lt layerTimes) callsPerJob(name string) float64 {
	if lt.jobs == 0 {
		return 0
	}
	return float64(lt.calls[name]) / float64(lt.jobs)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
