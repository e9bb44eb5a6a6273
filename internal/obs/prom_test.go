package obs_test

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestPromName checks the registry-name mapping is stable and legal.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"sched.measure.steps":  "dse_sched_measure_steps",
		"engine.pool.busy.max": "dse_engine_pool_busy_max",
		"a-b c":                "dse_a_b_c",
		"x:y_z9":               "dse_x:y_z9",
	} {
		if got := obs.PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promLine accepts one sample or comment line of the text exposition
// format 0.0.4 — the same shape scripts/prom_check.sh enforces.
var promLine = regexp.MustCompile(`^(# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)|HELP .*)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+)$`)

// TestWriteProm renders a small registry and checks every line parses and
// the expected families appear with the right types and values.
func TestWriteProm(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("sched.measure.steps").Add(42)
	r.Gauge("engine.jobs.running").Set(3)
	h := r.Histogram("sched.measure.us")
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	r.Histogram("empty.us") // registered but never observed

	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := b.String()
	for i, ln := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLine.MatchString(ln) {
			t.Errorf("line %d not valid exposition format: %q", i+1, ln)
		}
	}
	for _, frag := range []string{
		"# TYPE dse_sched_measure_steps counter\ndse_sched_measure_steps 42\n",
		"# TYPE dse_engine_jobs_running gauge\ndse_engine_jobs_running 3\n",
		"# TYPE dse_sched_measure_us summary\n",
		`dse_sched_measure_us{quantile="0.5"} `,
		`dse_sched_measure_us{quantile="0.99"} `,
		"dse_sched_measure_us_sum 4950\ndse_sched_measure_us_count 100\n",
		// An unobserved histogram still exports _sum/_count but no
		// quantiles (a quantile of an empty summary is undefined).
		"# TYPE dse_empty_us summary\ndse_empty_us_sum 0\ndse_empty_us_count 0\n",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, `dse_empty_us{`) {
		t.Errorf("empty histogram exported quantiles:\n%s", out)
	}
}

// TestImbalance checks the max/mean shard-imbalance statistic.
func TestImbalance(t *testing.T) {
	if got := obs.Imbalance(nil); got != 0 {
		t.Errorf("Imbalance(nil) = %v, want 0", got)
	}
	even := []obs.ShardStat{{Items: 10}, {Items: 10}}
	if got := obs.Imbalance(even); got != 1 {
		t.Errorf("Imbalance(even) = %v, want 1", got)
	}
	skew := []obs.ShardStat{{Items: 30}, {Items: 10}}
	if got := obs.Imbalance(skew); got != 1.5 {
		t.Errorf("Imbalance(skew) = %v, want 1.5 (30 / mean 20)", got)
	}
}

// TestRunReportString spot-checks the -explain rendering.
func TestRunReportString(t *testing.T) {
	r := &obs.RunReport{
		Kind: "check", WallUS: 1500, States: 100, Transitions: 250, DepthReached: 6,
		CacheHits: 30, CacheMisses: 10, CacheHitRatio: 0.75,
		Workers: 4, Levels: 6, ShardImbalance: 1.25,
		Shards: []obs.ShardStat{{Shard: 0, Levels: 6, Items: 40, Width: 48, WallUS: 900}},
		Phases: []obs.PhaseStat{{Name: "sched.measure", Calls: 3, WallUS: 1200, P50US: 256, P95US: 512, P99US: 512}},
	}
	out := r.String()
	for _, frag := range []string{
		"run report (check)", "states      100", "depth=6",
		"hit-ratio=0.750", "imbalance(max/mean)=1.250",
		"shard 0", "sched.measure", "p95≤",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}
