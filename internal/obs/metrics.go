package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n if n is larger — a high-water mark.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts observations v with 2^(i-1) ≤ v < 2^i (bucket 0 counts v < 1).
const histBuckets = 40

// Histogram accumulates a distribution of non-negative observations
// (typically microsecond durations or support sizes) in power-of-two
// buckets, with exact count/sum/min/max.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// Observe records one observation. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := 0
	if v >= 1 {
		i = bits.Len64(uint64(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[i]++
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time summary of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50, P95 and P99 are bucket-resolution quantile estimates (upper
	// bucket bounds), adequate for order-of-magnitude profiling.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Snapshot returns a point-in-time summary of the histogram.
func (h *Histogram) Snapshot() HistSnapshot { return h.snapshot() }

func (h *Histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
		s.P50 = h.quantileLocked(0.50)
		s.P95 = h.quantileLocked(0.95)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}

// quantileLocked returns the upper bound of the bucket containing the
// q-quantile. Callers hold h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	target := int64(math.Ceil(q * float64(h.count)))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			if i == 0 {
				return 1
			}
			return math.Ldexp(1, i) // 2^i, the bucket's upper bound
		}
	}
	return h.max
}

// Registry is a named collection of counters, gauges and histograms. All
// methods are safe for concurrent use; instruments are created on first
// reference and live for the registry's lifetime.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures the current values of every instrument. Counters and
// gauges are read atomically per instrument; the snapshot as a whole is
// not a consistent cut, which is fine for profiling.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // maps of scalars cannot fail to marshal
		panic("obs: snapshot marshal: " + err.Error())
	}
	return out
}

// sortedNames returns the instrument names of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the snapshot as a compact sorted text summary, one
// instrument per line.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, n := range sortedNames(s.Counters) {
		fmt.Fprintf(&b, "counter  %-36s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedNames(s.Gauges) {
		fmt.Fprintf(&b, "gauge    %-36s %d\n", n, s.Gauges[n])
	}
	for _, n := range sortedNames(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist     %-36s n=%d mean=%.3g p50≤%.3g p95≤%.3g p99≤%.3g max=%.3g\n",
			n, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	return b.String()
}

// Default is the process-wide registry used by the instrumented packages
// and exported by the CLI tools' -metrics flag.
var Default = NewRegistry()

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }
