package obs

import (
	"fmt"
	"io"
	"strings"
)

// PromContentType is the content type of the Prometheus text exposition
// format version 0.0.4, served by dsed's /v1/metrics?format=prom.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promPrefix namespaces every exported metric so the registry's dotted
// names cannot collide with other exporters on the same Prometheus server.
const promPrefix = "dse_"

// PromName maps a registry name to a legal Prometheus metric name:
// the dse_ namespace prefix plus the dotted path with every character
// outside [a-zA-Z0-9_:] replaced by an underscore, e.g.
// "sched.measure.steps" → "dse_sched_measure_steps". The mapping is the
// stable metric-name registry documented in docs/OBSERVABILITY.md.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// summaries with quantile samples plus _sum and _count. Families are
// emitted in sorted name order so the output is deterministic for a fixed
// snapshot.
func (s Snapshot) WriteProm(w io.Writer) error {
	for _, n := range sortedNames(s.Counters) {
		pn := PromName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(s.Gauges) {
		pn := PromName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedNames(s.Histograms) {
		pn := PromName(n)
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", pn); err != nil {
			return err
		}
		if h.Count > 0 {
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
				if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", pn, q.q, promFloat(q.v)); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promFloat renders a float as Prometheus expects: shortest exact decimal,
// no exponent surprises for the integral values our histograms mostly hold.
func promFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
