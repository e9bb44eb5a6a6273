// Command bench is the repository benchmark. One run measures one workload
// in a fresh process, checks every answer against an independent oracle
// and prints the end-to-end metrics; with -trace 1 it instead replays each
// job as its sequence of layer calls, times each call from outside, and
// prints the per-layer metrics. See README.md for the catalogue.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1> -dsed <path>
//
// The next-to-last line of standard output is the full record of the run
// (sample counts, seed, client count); the last line is the summary
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one workload: its fixed job list's length and its runner.
type workload struct {
	// jobs is how many jobs (requests, for dsed-mix) the measured phase
	// runs. The counts were calibrated once, so that a measured phase
	// lasts about 25 to 30 seconds on a 2-vCPU x86-64 VM (dsed-mix: about
	// 8), and are fixed: every run of a workload, on any host and at any
	// speed of the code, runs the same jobs for a given seed.
	jobs int
	run  func(cfg *config) (*outcome, error)
}

var workloads = map[string]workload{
	"emulate-sessions": {5, func(cfg *config) (*outcome, error) { return runInproc(cfg, &emulate{sessions: 2}) }},
	"describe-ledger":  {3, func(cfg *config) (*outcome, error) { return runInproc(cfg, &describe{chains: 3}) }},
	"measure-kernels":  {17 * walkBlock, func(cfg *config) (*outcome, error) { return runInproc(cfg, &kernels{}) }},
	"dsed-mix":         {3000, runDsedMix},
}

// limitFactor bounds a measured phase at this many times the run length
// (--seconds): a job list that no longer fits is stopped and the run fails,
// rather than running on past the time a run may take.
const limitFactor = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by untraced runs, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by traced runs, on every workload. A layer
// a workload does not reach reads 0. Time is reported as each layer's share
// of the traced jobs' wall time (self time, so shares add up to coverage);
// counts are per traced job.
var perLayerMetrics = []metricDef{
	{"trace.job_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"adversary.check_pct", "%"},
	{"adversary.check_calls", "count"},
	{"structured.hide_pct", "%"},
	{"structured.hide_calls", "count"},
	{"psioa.compose_pct", "%"},
	{"psioa.compose_calls", "count"},
	{"psioa.validate_pct", "%"},
	{"sched.enumerate_pct", "%"},
	{"sched.schedulers", "count"},
	{"sched.measure_pct", "%"},
	{"sched.executions", "count"},
	{"sched.sample_pct", "%"},
	{"sched.samples", "count"},
	{"insight.fdist_pct", "%"},
	{"insight.fdist_calls", "count"},
	{"insight.distance_pct", "%"},
	{"insight.distance_calls", "count"},
	{"pca.pct", "%"},
	{"pca.calls", "count"},
	{"bounded.describe_pct", "%"},
	{"bounded.querywork_pct", "%"},
	{"bounded.compbound_pct", "%"},
	{"engine.fingerprint_pct", "%"},
	{"engine.explore_pct", "%"},
	{"engine.run_pct", "%"},
	{"engine.cache.hits", "count"},
	{"engine.cache.misses", "count"},
	{"engine.cache.hit_ratio", "ratio"},
	{"durable.submit_pct", "%"},
	{"durable.journal_bytes", "bytes"},
	{"http.overhead_pct", "%"},
	{"gc.cycles", "count"},
	{"gc.cpu_ms", "ms"},
	{"gc.pause_ms", "ms"},
	{"gc.alloc_mb", "MB"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	nproc    int
	dsed     string
	// rundir is this run's private directory (daemon stores); removed at
	// exit.
	rundir string
	// spans is where a traced run writes its spans as JSON lines.
	spans string
	// jobs is the length of the measured job list.
	jobs  int
	start time.Time
}

// limit is how long the measured phase may run.
func (cfg *config) limit() time.Duration { return limitFactor * cfg.seconds }

// overrun reports, as an error, a measured phase that began at phase and
// has run past its limit with done of its jobs finished.
func (cfg *config) overrun(phase time.Time, done int) error {
	if time.Since(phase) > cfg.limit() {
		return fmt.Errorf("measured phase past %v with %d of %d jobs done: the job list no longer fits the run length", cfg.limit(), done, cfg.jobs)
	}
	return nil
}

func (cfg *config) writeSpans(tr *tracer) error {
	if cfg.spans == "" {
		return nil
	}
	return tr.write(cfg.spans)
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	clients           int
	metrics           []metricRec
}

// metricRec is one reported value with its sample count.
type metricRec struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// fail counts a failed job, describing the first few on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAIL "+format+"\n", args...)
	}
}

// set fills the metrics of defs from values, in the order of defs.
func (o *outcome) set(defs []metricDef, values map[string]float64, n int) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("bench: metric " + d.name + " not computed")
		}
		o.metrics = append(o.metrics, metricRec{Name: d.name, Value: v, Unit: d.unit, N: n})
	}
}

// endToEnd records the end-to-end metrics: walls are the measured jobs'
// latencies in ms, wall the time the measured jobs took together, cpu the
// CPU the working process spent on them and rssMB its peak resident set.
func (o *outcome) endToEnd(setups, walls []float64, wall, cpu time.Duration, rssMB float64) {
	o.set(endToEndMetrics, map[string]float64{
		"setup_s":     quantile(setups, 0.5),
		"wall_s":      wall.Seconds(),
		"job_p50_ms":  quantile(walls, 0.5),
		"job_p95_ms":  quantile(walls, 0.95),
		"job_p99_ms":  quantile(walls, 0.99),
		"cpu_s":       cpu.Seconds(),
		"peak_rss_mb": rssMB,
	}, len(walls))
	o.metrics[0].N = len(setups) // setup_s, the first end-to-end metric
}

// perLayer records the per-layer metrics of a traced run from its layer
// times, its work counters per job (missing counters read 0) and its
// tracing overhead.
func (o *outcome) perLayer(lt layerTimes, counters map[string]float64, overhead float64) {
	jobs := float64(lt.jobs)
	if jobs == 0 {
		jobs = 1
	}
	hits, misses := counters["engine.cache.hits"], counters["engine.cache.misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	o.set(perLayerMetrics, map[string]float64{
		"trace.job_ms":           float64(lt.rootNS) / 1e6 / jobs,
		"trace.coverage":         lt.coverage(),
		"trace.overhead":         overhead,
		"adversary.check_pct":    lt.pct("adversary.check"),
		"adversary.check_calls":  lt.callsPerJob("adversary.check"),
		"structured.hide_pct":    lt.pct("structured.hide"),
		"structured.hide_calls":  lt.callsPerJob("structured.hide"),
		"psioa.compose_pct":      lt.pct("psioa.compose"),
		"psioa.compose_calls":    lt.callsPerJob("psioa.compose"),
		"psioa.validate_pct":     lt.pct("psioa.validate"),
		"sched.enumerate_pct":    lt.pct("sched.enumerate"),
		"sched.schedulers":       counters["sched.schedulers"],
		"sched.measure_pct":      lt.pct("sched.measure"),
		"sched.executions":       counters["sched.executions"],
		"sched.sample_pct":       lt.pct("sched.sample"),
		"sched.samples":          counters["sched.samples"],
		"insight.fdist_pct":      lt.pct("insight.fdist"),
		"insight.fdist_calls":    lt.callsPerJob("insight.fdist"),
		"insight.distance_pct":   lt.pct("insight.distance"),
		"insight.distance_calls": lt.callsPerJob("insight.distance"),
		"pca.pct":                lt.pct("pca"),
		"pca.calls":              lt.callsPerJob("pca"),
		"bounded.describe_pct":   lt.pct("bounded.describe"),
		"bounded.querywork_pct":  lt.pct("bounded.querywork"),
		"bounded.compbound_pct":  lt.pct("bounded.compbound"),
		"engine.fingerprint_pct": lt.pct("engine.fingerprint"),
		"engine.explore_pct":     lt.pct("engine.explore"),
		"engine.run_pct":         lt.pct("engine.run"),
		"engine.cache.hits":      hits,
		"engine.cache.misses":    misses,
		"engine.cache.hit_ratio": ratio,
		"durable.submit_pct":     lt.pct("durable.submit"),
		"durable.journal_bytes":  counters["durable.journal_bytes"],
		"http.overhead_pct":      lt.pct("http.request"),
		"gc.cycles":              counters["gc.cycles"],
		"gc.cpu_ms":              counters["gc.cpu_ms"],
		"gc.pause_ms":            counters["gc.pause_ms"],
		"gc.alloc_mb":            counters["gc.alloc_mb"],
	}, lt.jobs)
}

func main() {
	cfg := &config{start: time.Now(), nproc: runtime.NumCPU()}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "run length in seconds; the measured phase runs a fixed job list and fails past 5 times this")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	flag.StringVar(&cfg.dsed, "dsed", ".bench_build/bin/dsed", "dsed binary (dsed-mix)")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's working files and span output")
	flag.Parse()

	wl, ok := workloads[cfg.workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg.jobs = wl.jobs
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	if cfg.trace {
		cfg.spans = filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	rundir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg.rundir = rundir
	out, err := wl.run(cfg)
	os.RemoveAll(rundir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report prints the run's full record, then the summary line.
func report(w *os.File, cfg *config, out *outcome) error {
	full := map[string]metricRec{}
	short := map[string]any{}
	for _, m := range out.metrics {
		full[m.Name] = m
		short[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	correct := out.failed == 0 && out.attempted > 0
	rec, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": int(cfg.seconds / time.Second),
		"trace": trace, "nproc": cfg.nproc, "clients": out.clients,
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": full,
	})
	if err != nil {
		return err
	}
	sum, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": short,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, sum)
	return err
}
