package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/psioa"
)

// inproc is a workload whose jobs run inside the benchmark process.
type inproc interface {
	// prepare builds what the jobs share (runner, worker pool); it is part
	// of set-up and is repeated with it.
	prepare(cfg *config) error
	// warm runs the unmeasured warm-up job and checks its answer.
	warm() error
	// direct runs job i through the entry point a user calls and returns
	// its result in canonical JSON.
	direct(i int) ([]byte, error)
	// replay runs job i as the sequence of public layer calls the direct
	// path is made of, timing each call on tr, and returns the same
	// canonical JSON.
	replay(i int, tr *tracer) ([]byte, error)
	// check compares job i's result with the oracle.
	check(i int, out []byte) error
}

// A run sets up setupGroups × setupPerGroup times; setup_s is their median.
// One set-up takes 10 to 60 ms, and the host's speed moves single set-ups
// by up to half for spells of a fraction of a second to half a minute, so
// the groups are spread evenly over the measured phase: the first before
// the first job, the last after the last job.
const (
	setupGroups   = 5
	setupPerGroup = 9
)

// setupTimes runs and times a run's set-ups.
type setupTimes struct {
	cfg   *config
	w     inproc
	times []float64
}

// upTo runs every group of set-ups that is due once done jobs have
// finished: group k is due after k·jobs/(setupGroups−1) of them. The first
// set-up is timed from process start; every later one starts fresh.
func (s *setupTimes) upTo(done int) error {
	for k := len(s.times) / setupPerGroup; k < setupGroups && k*s.cfg.jobs/(setupGroups-1) <= done; k++ {
		for r := 0; r < setupPerGroup; r++ {
			if err := s.one(); err != nil {
				return err
			}
		}
	}
	return nil
}

// one runs and times one set-up.
func (s *setupTimes) one() error {
	t0 := s.cfg.start
	if len(s.times) > 0 {
		fresh()
		t0 = time.Now()
	}
	if err := s.w.prepare(s.cfg); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := s.w.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	s.times = append(s.times, time.Since(t0).Seconds())
	return nil
}

// fresh puts the process back in the state a new process starts in: an
// empty process-wide signature memo and a collected heap. Every set-up after
// the first and every measured job starts from it, untimed, so that no job
// pays for another's garbage or runs beside its dead memo entries (every job
// has fresh ids, so those entries are never hit again).
func fresh() {
	psioa.ResetSortMemo()
	runtime.GC()
}

// runInproc sets the workload up, then measures its job list: untraced jobs
// one after another, with the later set-ups between them, or, with tracing
// (which reports no set-up time, so sets up once), each job both directly
// and as a traced replay.
func runInproc(cfg *config, w inproc) (*outcome, error) {
	setups := &setupTimes{cfg: cfg, w: w}
	if cfg.trace {
		if err := setups.one(); err != nil {
			return nil, err
		}
		return traceInproc(cfg, w)
	}
	if err := setups.upTo(0); err != nil {
		return nil, err
	}
	out := &outcome{clients: 1}
	walls := make([]float64, 0, cfg.jobs)
	var wall, cpu time.Duration
	phase := time.Now()
	for i := 0; i < cfg.jobs; i++ {
		if err := cfg.overrun(phase, i); err != nil {
			return nil, err
		}
		fresh()
		cpu0, t0 := cpuSelf(), time.Now()
		res, err := w.direct(i)
		d := time.Since(t0)
		cpu += cpuSelf() - cpu0
		wall += d
		walls = append(walls, ms(d))
		out.attempted++
		if err == nil {
			err = w.check(i, res)
		}
		if err != nil {
			out.fail("job %d: %v", i, err)
		}
		if err := setups.upTo(i + 1); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.endToEnd(setups.times, walls, wall, cpu, rss)
	return out, nil
}

// traceInproc runs each job directly and as a traced replay, back to back.
// Both start fresh and the order alternates, so neither side inherits the
// other's heap size or warm process-wide caches. The replay's result must be
// byte-identical to the direct one.
func traceInproc(cfg *config, w inproc) (*outcome, error) {
	out := &outcome{clients: 1}
	tr := newTracer()
	var gc gcTotals
	var directNS, tracedNS int64
	phase := time.Now()
	for i := 0; i < cfg.jobs; i++ {
		if err := cfg.overrun(phase, i); err != nil {
			return nil, err
		}
		var direct, traced []byte
		var derr, terr error
		runDirect := func() {
			fresh()
			s := time.Now()
			direct, derr = w.direct(i)
			directNS += time.Since(s).Nanoseconds()
		}
		runTraced := func() {
			fresh()
			g := readGC()
			s := time.Now()
			root := tr.begin(rootSpan)
			traced, terr = w.replay(i, tr)
			tr.end(root)
			tracedNS += time.Since(s).Nanoseconds()
			gc.add(g, readGC())
		}
		if i%2 == 0 {
			runDirect()
			runTraced()
		} else {
			runTraced()
			runDirect()
		}
		out.attempted++
		switch {
		case derr != nil:
			out.fail("job %d: %v", i, derr)
		case terr != nil:
			out.fail("job %d: traced replay: %v", i, terr)
		case !bytes.Equal(direct, traced):
			out.fail("job %d: traced replay result differs from the direct call:\n direct: %s\n traced: %s", i, direct, traced)
		default:
			if err := w.check(i, direct); err != nil {
				out.fail("job %d: %v", i, err)
			}
		}
	}
	if err := cfg.writeSpans(tr); err != nil {
		return nil, err
	}
	overhead := 0.0
	if directNS > 0 {
		overhead = float64(tracedNS)/float64(directNS) - 1
	}
	lt := tr.layers()
	out.perLayer(lt, perJob(tr.counts, gc, lt.jobs), overhead)
	return out, nil
}

// perJob divides work counters and GC totals by the number of jobs they
// were summed over.
func perJob(counts map[string]int64, gc gcTotals, jobs int) map[string]float64 {
	n := float64(max(jobs, 1))
	m := map[string]float64{
		"gc.cycles":   float64(gc.cycles) / n,
		"gc.cpu_ms":   gc.cpuSeconds * 1000 / n,
		"gc.pause_ms": float64(gc.pauseNS) / 1e6 / n,
		"gc.alloc_mb": float64(gc.allocBytes) / (1 << 20) / n,
	}
	for k, v := range counts {
		m[k] = float64(v) / n
	}
	return m
}

// newRand returns the input stream of job i: inputs depend only on the
// seed and the job's index, so direct and traced runs of one job agree.
func newRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(int64(i))))
}

// newID draws a fresh automaton id. Every id has the same length, so the
// description lengths the oracle expects do not depend on the seed.
func newID(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	const alnum = letters + "0123456789"
	b := []byte{letters[r.IntN(len(letters))]}
	for len(b) < 6 {
		b = append(b, alnum[r.IntN(len(alnum))])
	}
	return string(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSelf is the user+system CPU time this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuOf is the user+system CPU time process pid has used.
func cpuOf(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it are fixed.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB is the peak resident set size (VmHWM) of process pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// gcSample is the runtime's GC account at one instant.
type gcSample struct {
	cycles, allocBytes uint64
	cpuSeconds         float64
	pauseNS            uint64
}

var gcMetrics = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{
		cycles:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		cpuSeconds: s[2].Value.Float64(),
		pauseNS:    ms.PauseTotalNs,
	}
}

// gcTotals sums GC activity over the traced jobs only.
type gcTotals struct {
	cycles, allocBytes, pauseNS uint64
	cpuSeconds                  float64
}

func (g *gcTotals) add(from, to gcSample) {
	g.cycles += to.cycles - from.cycles
	g.allocBytes += to.allocBytes - from.allocBytes
	g.pauseNS += to.pauseNS - from.pauseNS
	g.cpuSeconds += to.cpuSeconds - from.cpuSeconds
}
