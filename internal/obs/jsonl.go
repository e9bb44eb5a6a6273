package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// JSONL is a Tracer that appends one JSON object per event to a writer.
// Events are timestamped relative to the tracer's creation and written
// under a mutex, so a single JSONL tracer may serve many goroutines.
type JSONL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewJSONL returns a tracer writing JSON Lines to w. Call Flush before
// closing the underlying writer.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// Enabled implements Tracer.
func (j *JSONL) Enabled() bool { return true }

// Emit implements Tracer.
func (j *JSONL) Emit(e Event) {
	t := time.Since(j.start).Microseconds()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	e.T = t
	j.err = j.enc.Encode(e)
}

// Flush drains buffered events and reports the first write error, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// ReadTrace decodes a JSONL trace produced by a JSONL tracer.
func ReadTrace(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return out, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

// Recorder is an in-memory Tracer for tests and summaries.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	start  time.Time
}

// NewRecorder returns an empty in-memory tracer.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	t := time.Since(r.start).Microseconds()
	r.mu.Lock()
	e.T = t
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
