package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
)

// The dsed-mix workload drives a fresh cmd/dsed over loopback with small
// builtin jobs from nproc closed-loop clients in this one process. Half the
// requests resend an earlier body (served from the daemon's memo cache),
// half use fresh ids (cache writes); a tenth are queued with ?async=1, so
// each is journaled with an fsync before the daemon answers, and their
// results are fetched and checked after the measured phase. The mix is
// dealt in rounds that hold it exactly, so every seed's requests do the
// same amount of each kind of work.

const (
	mixSetupReps = 12
	// Every round of mixRound requests holds mixResends resends and
	// mixAsyncs ?async=1 submissions.
	mixRound   = 10
	mixResends = 5
	mixAsyncs  = 1
	// mixWindow is how many of the latest fresh bodies a resend picks from:
	// their memo entries fit the daemon's cache, so resends are cache reads.
	mixWindow = 64
	// mixFetchTimeout bounds the wait for queued jobs after the phase.
	mixFetchTimeout = 60 * time.Second
)

// mixTemplates is the template mix: every round of twenty fresh requests
// holds each template n times. Every template takes a few milliseconds when
// cold.
var mixTemplates = []struct {
	tmpl string
	n    int
}{{"coin", 4}, {"chan", 4}, {"chansim", 5}, {"ledgersim", 3}, {"describe", 4}}

// mixJob is one daemon request with what the oracle expects of it.
type mixJob struct {
	tmpl string
	id   string
	dist float64 // a check's distance
	m    int     // a channel simulation's message bit
	job  engine.Job
	body []byte // the job's spec, the request body
}

// path is the daemon route of the job's kind.
func (j mixJob) path() string { return "/v1/" + j.job.Kind }

// newMixJob draws a fresh instance of a template.
func newMixJob(r *rand.Rand, tmpl string) mixJob {
	j := mixJob{tmpl: tmpl, id: newID(r)}
	var spec any
	switch tmpl {
	case "coin":
		left := ""
		if r.IntN(2) == 0 {
			k := 2 + r.IntN(3)
			left, j.dist = fmt.Sprintf("coin:leaky:%s:%d", j.id, k), math.Ldexp(1, -k)
		} else {
			p := []float64{0.625, 0.75}[r.IntN(2)]
			left, j.dist = fmt.Sprintf("coin:biased:%s:%g", j.id, p), p-0.5
		}
		cs := &engine.CheckSpec{Left: left, Right: "coin:fair:" + j.id, Envs: []string{"coin:env:" + j.id}, Eps: j.dist, Q1: 3}
		j.job, spec = engine.Job{Kind: engine.KindCheck, Check: cs}, cs
	case "chan":
		leak := []float64{0.5, 0.25, 0.125}[r.IntN(3)]
		j.dist = leak / 2
		cs := &engine.CheckSpec{
			Left: fmt.Sprintf("chan:leaky:%s:%g", j.id, leak), Right: "chan:real:" + j.id,
			Envs:   []string{"chan:env:" + j.id + ":0", "chan:env:" + j.id + ":1"},
			Schema: "priority", Templates: [][]string{{"send", "encrypt", "tap", "deliver"}},
			Eps: j.dist, Q1: 6,
		}
		j.job, spec = engine.Job{Kind: engine.KindCheck, Check: cs}, cs
	case "chansim":
		j.m = r.IntN(2)
		ss := &engine.SimulateSpec{
			Systems: []string{"chan:real:" + j.id, fmt.Sprintf("chan:env:%s:%d", j.id, j.m)},
			Sched:   "priority", Order: []string{"send", "encrypt", "tap", "deliver"}, Bound: 8,
		}
		j.job, spec = engine.Job{Kind: engine.KindSimulate, Simulate: ss}, ss
	case "ledgersim":
		ss := &engine.SimulateSpec{Systems: []string{"ledger:direct:" + j.id + ":1"}, Sched: "random", Bound: 8}
		j.job, spec = engine.Job{Kind: engine.KindSimulate, Simulate: ss}, ss
	case "describe":
		id2 := newID(r)
		for id2 == j.id {
			id2 = newID(r)
		}
		ds := &engine.DescribeSpec{Systems: []string{"ledger:direct:" + j.id + ":1", "ledger:parity:" + id2 + ":1"}}
		j.job, spec = engine.Job{Kind: engine.KindDescribe, Describe: ds}, ds
	}
	body, err := json.Marshal(spec)
	if err != nil {
		panic("bench: mix spec: " + err.Error())
	}
	j.body = body
	return j
}

// deck deals its cards in rounds, each round every card once in a
// seed-drawn order.
type deck[T any] struct {
	cards, left []T
}

func (d *deck[T]) deal(r *rand.Rand) T {
	if len(d.left) == 0 {
		d.left = append([]T(nil), d.cards...)
		r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[0]
	d.left = d.left[1:]
	return c
}

// mixGen is the request stream, shared by the clients: the sequence of
// requests is a function of the seed; which client sends which is not.
type mixGen struct {
	mu            sync.Mutex
	r             *rand.Rand
	resend, async deck[bool]
	templates     deck[string]
	hist          []mixJob
	seq, max      int
}

func newMixGen(seed uint64, max int) *mixGen {
	g := &mixGen{r: newRand(seed, 0), max: max}
	for i := 0; i < mixRound; i++ {
		g.resend.cards = append(g.resend.cards, i < mixResends)
		g.async.cards = append(g.async.cards, i < mixAsyncs)
	}
	for _, t := range mixTemplates {
		for k := 0; k < t.n; k++ {
			g.templates.cards = append(g.templates.cards, t.tmpl)
		}
	}
	return g
}

// next returns the next request and whether to queue it; ok is false once
// max requests were handed out. The first request is fresh even when its
// card says resend, as there is nothing to resend yet.
func (g *mixGen) next() (j mixJob, async bool, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seq >= g.max {
		return mixJob{}, false, false
	}
	if g.resend.deal(g.r) && len(g.hist) > 0 {
		j = g.hist[len(g.hist)-1-g.r.IntN(min(len(g.hist), mixWindow))]
	} else {
		j = newMixJob(g.r, g.templates.deal(g.r))
		g.hist = append(g.hist, j)
	}
	async = g.async.deal(g.r)
	g.seq++
	return j, async, true
}

// daemon is a running dsed child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	client  *http.Client
	done    chan struct{}
	waitErr error
}

// startDaemon starts dsed on a free loopback port with a fresh durable
// store and waits until /healthz answers.
func startDaemon(cfg *config, n int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{
		base: "http://" + addr,
		dir:  filepath.Join(cfg.rundir, fmt.Sprintf("dsed-%d", n)),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc},
		},
		done: make(chan struct{}),
	}
	d.cmd = exec.Command(cfg.dsed, "-addr", addr, "-workers", strconv.Itoa(cfg.nproc), "-store-dir", d.dir)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	// The daemon must not outlive this process, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dsed: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("dsed exited during start-up: %v", d.waitErr)
		default:
		}
		if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dsed not healthy after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// post sends a request and returns the status and body.
func (d *daemon) post(j mixJob, async bool) (int, []byte, error) {
	url := d.base + j.path()
	if async {
		url += "?async=1"
	}
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(j.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// counters reads the daemon's cumulative metric counters.
func (d *daemon) counters() (map[string]int64, error) {
	body, err := d.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	err = json.Unmarshal(body, &snap)
	return snap.Counters, err
}

// journalBytes is the size of the daemon's write-ahead journal.
func (d *daemon) journalBytes() int64 {
	st, err := os.Stat(filepath.Join(d.dir, "journal.jsonl"))
	if err != nil {
		return 0
	}
	return st.Size()
}

// sync runs one request synchronously and checks the answer.
func (d *daemon) sync(j mixJob) (*engine.Result, error) {
	status, body, err := d.post(j, false)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", j.path(), j.body, status, body)
	}
	var res engine.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return &res, checkMix(j, &res)
}

// warm sends one cold request of every template.
func (d *daemon) warm(seed uint64) error {
	r := newRand(seed, -1)
	for _, t := range mixTemplates {
		if _, err := d.sync(newMixJob(r, t.tmpl)); err != nil {
			return err
		}
	}
	return nil
}

// queued is an async submission awaiting its result.
type queued struct {
	job mixJob
	id  string
}

// mixClient is one closed-loop client's account of the measured phase.
type mixClient struct {
	lats   []float64
	queued []queued
	fails  []string
	// traced maps each synchronous body of a traced run to its canonical
	// result.
	traced map[string]tracedReply
}

type tracedReply struct {
	job    mixJob
	result []byte
}

// runDsedMix sets a daemon up mixSetupReps times, each a fresh process and
// store: half before the measured phase, the last of which serves it, and
// half after it, so that their median spans the run. A traced run reports
// no set-up time and skips the second half.
func runDsedMix(cfg *config) (*outcome, error) {
	var setups []float64
	setup := func() (*daemon, error) {
		t0 := cfg.start
		if len(setups) > 0 {
			t0 = time.Now()
		}
		d, err := startDaemon(cfg, len(setups))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := d.warm(cfg.seed); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return d, nil
	}
	var d *daemon
	for len(setups) < mixSetupReps/2 {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = setup(); err != nil {
			return nil, err
		}
	}
	out, ph, err := d.measure(cfg)
	d.stop()
	if err != nil || cfg.trace {
		return out, err
	}
	for len(setups) < mixSetupReps {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		d.stop()
	}
	out.endToEnd(setups, ph.lats, ph.wall, ph.cpu, ph.rssMB)
	return out, nil
}

// mixPhase is what an untraced measured phase gives the end-to-end metrics
// besides the set-up times.
type mixPhase struct {
	lats      []float64
	wall, cpu time.Duration
	rssMB     float64
}

// measure runs the closed loop over the job list. Untraced, it returns the
// phase's outcome and what the end-to-end metrics need of it. With tracing,
// every request is traced from the client side — the HTTP round trip, and
// within it the job's own wall time as the daemon reports it — the results
// are compared with the same jobs run in this process, and the outcome
// holds the per-layer metrics. Tracing here is the client's own
// bookkeeping and leaves the requests unchanged, so its overhead reads 0;
// the daemon's GC cannot be read from outside it, so the GC layer reads 0
// too.
func (d *daemon) measure(cfg *config) (*outcome, *mixPhase, error) {
	gen := newMixGen(cfg.seed, cfg.jobs)
	tr := newTracer()
	c0, err := d.counters()
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := cpuOf(d.pid())
	if err != nil {
		return nil, nil, err
	}
	journal0 := d.journalBytes()
	phase := time.Now()
	clients := make([]*mixClient, cfg.nproc)
	var wg sync.WaitGroup
	for i := range clients {
		c := &mixClient{traced: map[string]tracedReply{}}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(phase) <= cfg.limit() {
				j, async, ok := gen.next()
				if !ok {
					return
				}
				c.request(d, tr, j, async, cfg.trace)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(phase)
	cpu1, err := cpuOf(d.pid())
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, nil, err
	}
	c1, err := d.counters()
	if err != nil {
		return nil, nil, err
	}
	journal1 := d.journalBytes()

	out := &outcome{clients: cfg.nproc}
	var lats []float64
	var pending []queued
	traced := map[string]tracedReply{}
	for _, c := range clients {
		lats = append(lats, c.lats...)
		pending = append(pending, c.queued...)
		for _, f := range c.fails {
			out.fail("%s", f)
		}
		for body, r := range c.traced {
			traced[body] = r
		}
	}
	if len(lats) < cfg.jobs {
		return nil, nil, cfg.overrun(phase, len(lats))
	}
	out.attempted = len(lats)
	d.collect(out, pending)
	if !cfg.trace {
		return out, &mixPhase{lats: lats, wall: wall, cpu: cpu1 - cpu0, rssMB: rss}, nil
	}

	// Replay fidelity: each traced job, run in this process, must produce
	// the daemon's result byte for byte.
	local := engine.NewRunner(engine.NewPool(cfg.nproc), engine.NewCache(0))
	for _, r := range traced {
		res, err := local.Run(context.Background(), r.job.job)
		var want []byte
		if err == nil {
			want, err = canonical(res)
		}
		if err != nil || !bytes.Equal(want, r.result) {
			out.fail("%s %s: daemon result differs from the direct call (%v):\n daemon: %s\n direct: %s", r.job.path(), r.job.body, err, r.result, want)
		}
	}
	if err := cfg.writeSpans(tr); err != nil {
		return nil, nil, err
	}
	n := float64(len(lats))
	per := perJob(nil, gcTotals{}, len(lats))
	per["engine.cache.hits"] = float64(c1["engine.cache.hits"]-c0["engine.cache.hits"]) / n
	per["engine.cache.misses"] = float64(c1["engine.cache.misses"]-c0["engine.cache.misses"]) / n
	per["durable.journal_bytes"] = float64(journal1-journal0) / n
	out.perLayer(tr.layers(), per, 0)
	return out, nil, nil
}

// request sends one request of the closed loop and checks its reply.
func (c *mixClient) request(d *daemon, tr *tracer, j mixJob, async, traced bool) {
	t0 := time.Now()
	status, body, err := d.post(j, async)
	t1 := time.Now()
	c.lats = append(c.lats, ms(t1.Sub(t0)))
	fail := func(format string, args ...any) {
		c.fails = append(c.fails, fmt.Sprintf("%s %s: ", j.path(), j.body)+fmt.Sprintf(format, args...))
	}
	if err != nil {
		fail("%v", err)
		return
	}
	if async {
		var rec engine.JobRecord
		if status != http.StatusAccepted {
			fail("status %d: %s", status, body)
		} else if err := json.Unmarshal(body, &rec); err != nil {
			fail("%v", err)
		} else {
			c.queued = append(c.queued, queued{job: j, id: rec.ID})
		}
		if traced {
			root := tr.record(rootSpan, -1, t0, t1)
			tr.record("durable.submit", root, t0, t1)
		}
		return
	}
	var res engine.Result
	if status != http.StatusOK {
		fail("status %d: %s", status, body)
		return
	}
	if err := json.Unmarshal(body, &res); err != nil {
		fail("%v", err)
		return
	}
	if err := checkMix(j, &res); err != nil {
		fail("%v", err)
	}
	if !traced || res.Report == nil {
		return
	}
	root := tr.record(rootSpan, -1, t0, t1)
	round := tr.record("http.request", root, t0, t1)
	wall := min(time.Duration(res.Report.WallUS)*time.Microsecond, t1.Sub(t0))
	start := t0.Add((t1.Sub(t0) - wall) / 2)
	tr.record("engine.run", round, start, start.Add(wall))
	if _, seen := c.traced[string(j.body)]; !seen {
		if canon, err := canonical(&res); err == nil {
			c.traced[string(j.body)] = tracedReply{job: j, result: canon}
		}
	}
}

// collect fetches the queued jobs' results and checks them; a job not
// finished within mixFetchTimeout counts as failed.
func (d *daemon) collect(out *outcome, pending []queued) {
	deadline := time.Now().Add(mixFetchTimeout)
	for _, q := range pending {
		for {
			body, err := d.get("/v1/jobs/" + q.id)
			var rec engine.JobRecord
			if err == nil {
				err = json.Unmarshal(body, &rec)
			}
			if err != nil {
				out.fail("queued job %s: %v", q.id, err)
				break
			}
			if rec.Status == engine.StatusDone && rec.Result != nil {
				if err := checkMix(q.job, rec.Result); err != nil {
					out.fail("queued job %s: %v", q.id, err)
				}
				break
			}
			if rec.Status == engine.StatusFailed {
				out.fail("queued job %s failed: %s", q.id, rec.Err)
				break
			}
			if time.Now().After(deadline) {
				out.fail("queued job %s unfinished after %v (status %s)", q.id, mixFetchTimeout, rec.Status)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
