package main

import (
	"io"
	"testing"
)

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, summary{1, 2, 3}},
		{[]float64{4, 1}, summary{0.25, 2.5, 4.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, summary{2, 4, 6}},
	} {
		if got := summarize(tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metric{Name: "job_p50_ms", Better: "lower", Bound: 0.1}
	mk := func(vs ...float64) []record {
		out := make([]record, len(vs))
		for i, v := range vs {
			out[i].Metrics = map[string]struct {
				Value float64 `json:"value"`
			}{m.Name: {v}}
		}
		return out
	}
	parent := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		change []record
		ok     bool
	}{
		{mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), true},         // gain
		{mk(100, 100, 100, 101, 99, 100, 100, 101, 99, 100), true}, // no change
		{mk(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), false},
	} {
		ok := compare(io.Discard, []string{""}, []metric{m}, map[string][]record{"": parent}, map[string][]record{"": tc.change})
		if ok != tc.ok {
			t.Errorf("compare(%v) ok=%v, want %v", values(tc.change, m.Name), ok, tc.ok)
		}
	}
}
