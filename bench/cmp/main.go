// Command cmp compares benchmark result sets. A result set is a file of
// run records — the line bench prints before its summary, one JSON object
// per line — as bench/record.sh collects them. Traced runs are ignored.
//
//	cmp [-bench BENCHMARK.json] agree A.jsonl B.jsonl
//	cmp [-bench BENCHMARK.json] compare PARENT.jsonl CHANGE.jsonl
//
// agree checks two sets of runs of the same code against the benchmark's
// own bounds: for every end-to-end metric and workload, each set's spread
// (quartile distance over median) must stay within the metric's bound, and
// the second median must not be worse than the first by more than the
// bound.
//
// compare judges a change against its parent from runs recorded in
// alternating pairs (the i-th run of each workload in PARENT pairs with
// the i-th in CHANGE). A metric is a gain when there are at least ten
// pairs, the change wins at least nine tenths of them, and the medians
// differ by more than the parent's quartile distance. Otherwise a metric
// whose spread exceeds its bound is unresolved, unless every run of the
// change reads better than every run of the parent; a median worse by more
// than the bound is a regression. A workload on which more jobs failed
// than at the parent fails outright.
//
// Both modes print one row per metric and workload and exit 1 when a row
// fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one untraced run.
type record struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is an end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	flag.Parse()
	if flag.NArg() != 3 || (flag.Arg(0) != "agree" && flag.Arg(0) != "compare") {
		fmt.Fprintln(os.Stderr, "usage: cmp [-bench BENCHMARK.json] agree|compare A.jsonl B.jsonl")
		os.Exit(2)
	}
	metrics, err := loadMetrics(*benchPath)
	exitOn(err)
	a, order, err := load(flag.Arg(1))
	exitOn(err)
	b, _, err := load(flag.Arg(2))
	exitOn(err)
	judge := agree
	if flag.Arg(0) == "compare" {
		judge = compare
	}
	if !judge(os.Stdout, order, metrics, a, b) {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
}

func loadMetrics(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// load reads a result set, grouped by workload in file order, and the
// workloads in order of first appearance.
func load(path string) (map[string][]record, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if _, seen := out[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, order, sc.Err()
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failed(rs []record) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

// summary is a sample's median and quartiles, computed as Python's
// statistics.median and statistics.quantiles(xs, n=4) do.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out summary
	switch {
	case n == 0:
		return summary{math.NaN(), math.NaN(), math.NaN()}
	case n%2 == 1:
		out.med = s[n/2]
	default:
		out.med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		out.q1, out.q3 = s[0], s[0]
		return out
	}
	// The "exclusive" method: positions i·(n+1)/4, interpolated, clamped
	// to the data.
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	out.q1, out.q3 = q(1), q(3)
	return out
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return (s.q3 - s.q1) / s.med }

func (s summary) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3) }

// worse is how much worse b reads than a, as a share of a (negative when
// b is better).
func (m metric) worse(a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree reports whether two runs of the same code agree.
func agree(w io.Writer, order []string, metrics []metric, a, b map[string][]record) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tA spread\tB median [q1, q3]\tB spread\tB vs A\tbound\tverdict")
	ok := true
	for _, wl := range order {
		if failed(a[wl])+failed(b[wl]) > 0 {
			ok = false
			fmt.Fprintf(tw, "%s\tfailed jobs\t%d\t\t%d\t\t\t\tFAIL\n", wl, failed(a[wl]), failed(b[wl]))
		}
		for _, m := range metrics {
			va, vb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(va) < 2 || len(vb) < 2 {
				ok = false
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t\t%d runs\t\t\t\tTOO FEW RUNS\n", wl, m.Name, len(va), len(vb))
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			worse := m.worse(sa.med, sb.med)
			spread := math.Max(sa.spread(), sb.spread())
			verdict := "agree"
			switch {
			case worse > m.Bound:
				verdict, ok = "DISAGREE (median)", false
			case spread > m.Bound:
				verdict, ok = "DISAGREE (spread)", false
			case spread > m.Bound/3:
				verdict = "agree, spread above a third of the bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%s\t%.3f\t%+.1f%%\t%g\t%s\n",
				wl, m.Name, sa, sa.spread(), sb, sb.spread(), 100*worse, m.Bound, verdict)
		}
	}
	tw.Flush()
	return ok
}

// compare reports whether a change neither regresses nor fails more jobs
// than its parent.
func compare(w io.Writer, order []string, metrics []metric, parent, change map[string][]record) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange vs parent\twins\tbound\tverdict")
	ok := true
	for _, wl := range order {
		p, c := parent[wl], change[wl]
		pairs := min(len(p), len(c))
		failedRose := failed(c) > failed(p)
		if failedRose {
			ok = false
			fmt.Fprintf(tw, "%s\tfailed jobs\t%d\t%d\t\t\t\tFAILED JOBS ROSE\n", wl, failed(p), failed(c))
		}
		for _, m := range metrics {
			vp, vc := values(p, m.Name), values(c, m.Name)
			if len(vp) < 2 || len(vc) < 2 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t\t\t\tTOO FEW RUNS\n", wl, m.Name, len(vp), len(vc))
				continue
			}
			sp, sc := summarize(vp), summarize(vc)
			wins := 0
			for i := 0; i < pairs && i < len(vp) && i < len(vc); i++ {
				if m.worse(vp[i], vc[i]) < 0 {
					wins++
				}
			}
			worse := m.worse(sp.med, sc.med)
			separated := true
			for _, x := range vp {
				for _, y := range vc {
					separated = separated && m.worse(x, y) < 0
				}
			}
			var verdict string
			switch {
			case failedRose:
				verdict = "no gain: failed jobs rose"
			case pairs >= 10 && worse < 0 && 10*wins >= 9*pairs && math.Abs(sc.med-sp.med) > sp.q3-sp.q1:
				verdict = "GAIN"
			case math.Max(sp.spread(), sc.spread()) > m.Bound:
				verdict = "unresolved (spread above bound)"
				if separated {
					verdict = "better (every run)"
				}
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			default:
				verdict = "no regression"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%g\t%s\n",
				wl, m.Name, sp, sc, 100*worse, wins, pairs, m.Bound, verdict)
		}
	}
	tw.Flush()
	return ok
}
