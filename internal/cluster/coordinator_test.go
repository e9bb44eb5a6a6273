package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/protocols/coin"
	"repro/internal/resilience"
	"repro/internal/spec"
)

// chanJob is the 2-environment leaky-channel check shared by the engine
// tests: the smallest real workload that exercises per-env sharding.
func chanJob() engine.Job {
	return engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left:      "chan:leaky:x:0.5",
		Right:     "chan:ideal:x",
		Envs:      []string{"chan:env:x:0", "chan:env:x:1"},
		Schema:    "priority",
		Templates: [][]string{{"send", "encrypt", "tap", "notify", "fabricate", "deliver"}},
		Eps:       0.25,
		Q1:        6, Q2: 6,
	}}
}

func newRunner() *engine.Runner {
	return engine.NewRunner(engine.NewPool(2), engine.NewCache(256))
}

// renderReport is the byte-identity witness: the full canonical JSON of the
// check report, pairs included.
func renderReport(t *testing.T, res *engine.Result) string {
	t.Helper()
	if res == nil || res.Check == nil {
		t.Fatal("result has no check report")
	}
	b, err := json.MarshalIndent(res.Check, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localBaseline runs the whole job on one fresh runner.
func localBaseline(t *testing.T, job engine.Job) string {
	t.Helper()
	res, err := newRunner().Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return renderReport(t, res)
}

func localCluster(t *testing.T, n int) (*cluster.Coordinator, []*cluster.LocalBackend) {
	t.Helper()
	backs := make([]*cluster.LocalBackend, n)
	ifaces := make([]cluster.Backend, n)
	for i := range backs {
		backs[i] = cluster.NewLocalBackend(string(rune('a'+i))+"-worker", newRunner())
		ifaces[i] = backs[i]
	}
	coord, err := cluster.NewCoordinator(ifaces...)
	if err != nil {
		t.Fatal(err)
	}
	return coord, backs
}

// TestCoordinatorMergeByteIdentical pins the headline property: a 3-worker
// cluster check merges to the exact bytes of the sequential single-node
// run, and a re-run is served from the content-addressed stores with
// cluster.remote.hits ticking.
func TestCoordinatorMergeByteIdentical(t *testing.T) {
	job := chanJob()
	want := localBaseline(t, job)
	coord, _ := localCluster(t, 3)

	hits0 := obs.C("cluster.remote.hits").Value()
	res, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res.Result); got != want {
		t.Fatalf("distributed report differs from local run:\n got: %s\nwant: %s", got, want)
	}
	if len(res.Shards) != len(job.Check.Envs) {
		t.Fatalf("shards = %d, want %d", len(res.Shards), len(job.Check.Envs))
	}
	for _, sh := range res.Shards {
		if sh.Worker == "" || sh.FromStore {
			t.Fatalf("cold shard %+v: want computed with a worker attributed", sh)
		}
	}

	// Second run: every shard is in some worker's store now.
	res2, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res2.Result); got != want {
		t.Fatalf("store-served report differs from local run:\n got: %s\nwant: %s", got, want)
	}
	for _, sh := range res2.Shards {
		if !sh.FromStore {
			t.Fatalf("warm shard %+v: want store-served", sh)
		}
	}
	if d := obs.C("cluster.remote.hits").Value() - hits0; d < 1 {
		t.Fatalf("cluster.remote.hits delta = %d, want >= 1", d)
	}
}

// TestCoordinatorSingleEnvPassThrough pins the unsharded path: a 1-env
// check routes as one shard and still matches the local run.
func TestCoordinatorSingleEnvPassThrough(t *testing.T) {
	job := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left:  "coin:biased:x:0.625",
		Right: "coin:fair:x",
		Envs:  []string{"coin:env:x"},
		Eps:   0.125,
		Q1:    3, Q2: 3,
	}}
	want := localBaseline(t, job)
	coord, _ := localCluster(t, 2)
	res, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res.Result); got != want {
		t.Fatalf("single-env cluster run differs:\n got: %s\nwant: %s", got, want)
	}
	if len(res.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(res.Shards))
	}
	if res.WorkerID == "" {
		t.Fatal("pass-through result lost its worker attribution")
	}
}

// TestCoordinatorWorkerDeathMidSweep kills a worker the moment the sweep
// first reaches it: the coordinator must re-route the failed shard to a
// survivor and still merge the exact local-run bytes. Every worker takes a
// turn as the victim, so whichever node rendezvous hashing makes a shard
// owner is covered.
func TestCoordinatorWorkerDeathMidSweep(t *testing.T) {
	job := chanJob()
	want := localBaseline(t, job)
	anyDied := false
	for v := 0; v < 3; v++ {
		mocks := make([]*cluster.MockBackend, 3)
		ifaces := make([]cluster.Backend, 3)
		for i := range mocks {
			mocks[i] = cluster.NewMockBackend(string(rune('a'+i))+"-worker", newRunner())
			ifaces[i] = mocks[i]
		}
		var died atomic.Bool
		victim := mocks[v]
		victim.SetHook(func(engine.Job) error {
			died.Store(true)
			victim.Kill()
			return &cluster.UnreachableError{Node: victim.ID(), Err: errors.New("killed mid-sweep")}
		})
		coord, err := cluster.NewCoordinator(ifaces...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("victim %d: %v", v, err)
		}
		if got := renderReport(t, res.Result); got != want {
			t.Fatalf("victim %d: re-routed report differs from local run:\n got: %s\nwant: %s", v, got, want)
		}
		if !died.Load() {
			continue // rendezvous never routed a shard to this victim
		}
		anyDied = true
		rerouted := 0
		for _, sh := range res.Shards {
			rerouted += sh.Rerouted
			if sh.Worker == victim.ID() {
				t.Fatalf("victim %d: shard %+v attributed to the dead worker", v, sh)
			}
		}
		if rerouted == 0 {
			t.Fatalf("victim %d died mid-sweep but no shard was re-routed", v)
		}
		if st := coord.Stats(); st.Rerouted == 0 {
			t.Fatalf("victim %d: coordinator stats missed the re-route: %+v", v, st)
		}
	}
	if !anyDied {
		t.Fatal("no victim ever owned a shard — the test exercised nothing")
	}
}

// TestCoordinatorAllWorkersDown pins the typed fail-fast: with every node
// dead, Run returns ErrNoWorkers promptly instead of hanging.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	mocks := []*cluster.MockBackend{
		cluster.NewMockBackend("a-worker", nil),
		cluster.NewMockBackend("b-worker", nil),
	}
	mocks[0].Kill()
	mocks[1].Kill()
	coord, err := cluster.NewCoordinator(mocks[0], mocks[1])
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background(), chanJob())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, cluster.ErrNoWorkers) {
			t.Fatalf("err = %v, want ErrNoWorkers", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung with all workers down")
	}
}

// TestCoordinatorRevival pins lazy membership recovery: a worker that was
// down (all its jobs failed, node marked dead) is re-probed at the next Run
// and serves again once healthy.
func TestCoordinatorRevival(t *testing.T) {
	job := chanJob()
	want := localBaseline(t, job)
	mock := cluster.NewMockBackend("a-worker", newRunner())
	coord, err := cluster.NewCoordinator(mock)
	if err != nil {
		t.Fatal(err)
	}
	mock.Kill()
	if _, err := coord.Run(context.Background(), job); !errors.Is(err, cluster.ErrNoWorkers) {
		t.Fatalf("dead single-node cluster: err = %v, want ErrNoWorkers", err)
	}
	mock.Revive()
	res, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("revived cluster: %v", err)
	}
	if got := renderReport(t, res.Result); got != want {
		t.Fatalf("revived report differs from local run")
	}
	if st := coord.Stats(); st.Workers[0].Down {
		t.Fatalf("worker still marked down after revival: %+v", st)
	}
}

// TestCoordinatorDeterministicErrorNotRerouted pins the error policy: a
// job that fails deterministically (bad spec) must surface as-is, not mark
// workers dead or bounce around the cluster.
func TestCoordinatorDeterministicErrorNotRerouted(t *testing.T) {
	coord, _ := localCluster(t, 2)
	bad := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left: "coin:fair:x", Right: "coin:fair:x", Envs: []string{"no:such:ref"},
	}}
	_, err := coord.Run(context.Background(), bad)
	if err == nil {
		t.Fatal("bad spec succeeded")
	}
	if errors.Is(err, cluster.ErrNoWorkers) || cluster.IsUnreachable(err) {
		t.Fatalf("deterministic failure misclassified: %v", err)
	}
	st := coord.Stats()
	for _, w := range st.Workers {
		if w.Down {
			t.Fatalf("deterministic failure marked worker down: %+v", st)
		}
	}
	if st.Rerouted != 0 {
		t.Fatalf("deterministic failure was re-routed: %+v", st)
	}
}

// TestCoordinatorTransientBlip pins that a brief transport blip (one failed
// attempt, node stays up) re-routes the shard without losing the job, and
// the blipped node rejoins for later runs.
func TestCoordinatorTransientBlip(t *testing.T) {
	job := chanJob()
	want := localBaseline(t, job)
	mocks := make([]*cluster.MockBackend, 2)
	ifaces := make([]cluster.Backend, 2)
	for i := range mocks {
		mocks[i] = cluster.NewMockBackend(string(rune('a'+i))+"-worker", newRunner())
		ifaces[i] = mocks[i]
	}
	mocks[0].FailNext(1)
	mocks[1].FailNext(1)
	coord, err := cluster.NewCoordinator(ifaces...)
	if err != nil {
		t.Fatal(err)
	}
	coord.Retry = resilience.Backoff{Attempts: 3, Base: time.Millisecond}
	res, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, res.Result); got != want {
		t.Fatalf("post-blip report differs from local run")
	}
}

// TestRunResultStoreSkipsPartials would need a budget-partial simulate; the
// cheap pinnable slice of that rule: a simulate result flagged Partial is
// never published to any store. Exercised through the coordinator with a
// mock whose runner degrades is heavyweight, so pin the storable rule at
// the unit seam instead: a store lookup never returns a partial because
// nothing partial is ever put (see Coordinator.storePublish); here we
// verify simulate results round-trip the store when exact.
func TestCoordinatorSimulateStoreRoundTrip(t *testing.T) {
	job := engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
		Systems: []string{"coin:fair:x"},
		Bound:   3,
	}}
	want := func(res *engine.Result) string {
		b, err := json.MarshalIndent(res.Simulate, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base, err := newRunner().Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := localCluster(t, 2)
	res1, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := coord.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if want(res1.Result) != want(base) || want(res2.Result) != want(base) {
		t.Fatal("simulate results differ across store round-trip")
	}
	if !res2.Shards[0].FromStore {
		t.Fatalf("second simulate run not store-served: %+v", res2.Shards)
	}
}

// TestCoordinatorStoreStatsBackendAgnostic pins that per-worker store
// traffic is counted by the coordinator, not by each backend: one cold and
// one warm pass over an in-process cluster and over a mock cluster with the
// same worker IDs report the same store gets, hits and puts per worker.
func TestCoordinatorStoreStatsBackendAgnostic(t *testing.T) {
	ids := []string{"w0", "w1"}
	traffic := func(backends ...cluster.Backend) map[string]cluster.BackendStats {
		coord, err := cluster.NewCoordinator(backends...)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := coord.Run(context.Background(), chanJob()); err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[string]cluster.BackendStats)
		for _, w := range coord.Stats().Workers {
			out[w.ID] = cluster.BackendStats{StoreGets: w.Stats.StoreGets, StoreHits: w.Stats.StoreHits, StorePuts: w.Stats.StorePuts}
		}
		return out
	}
	local := traffic(cluster.NewLocalBackend(ids[0], newRunner()), cluster.NewLocalBackend(ids[1], newRunner()))
	mock := traffic(cluster.NewMockBackend(ids[0], newRunner()), cluster.NewMockBackend(ids[1], newRunner()))
	var puts, hits int64
	for _, id := range ids {
		if local[id] != mock[id] {
			t.Errorf("worker %s store traffic: local %+v, mock %+v", id, local[id], mock[id])
		}
		puts += local[id].StorePuts
		hits += local[id].StoreHits
	}
	// Two shards computed and published once, then both served warm.
	if puts != 2 || hits != 2 {
		t.Errorf("store traffic = %+v, want 2 puts and 2 hits in all", local)
	}
}

// TestCoordinatorFileRefNeverStored: a job's fingerprint names a file ref
// by its path, not by what the file holds, so the coordinator neither
// looks up nor publishes a job with a file ref. A check whose left system
// is a spec file, run again after the file is rewritten, gets the new
// file's answer, computed.
func TestCoordinatorFileRefNeverStored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "left.json")
	write := func(p1 float64) {
		if err := spec.Save(path, spec.FromTable(coin.Flipper("x", p1))); err != nil {
			t.Fatal(err)
		}
	}
	job := engine.Job{Kind: engine.KindCheck, Check: &engine.CheckSpec{
		Left: path, Right: "coin:fair:x", Envs: []string{"coin:env:x"}, Eps: 0.5, Q1: 3,
	}}
	coord, _ := localCluster(t, 2)
	for _, p1 := range []float64{0.625, 0.75} {
		write(p1)
		want := localBaseline(t, job)
		res, err := coord.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(t, res.Result); got != want {
			t.Fatalf("p1 %g: cluster report\n%s\nwant the file's current answer\n%s", p1, got, want)
		}
		if res.Result.Check.MaxDist != p1-0.5 {
			t.Errorf("p1 %g: MaxDist %g, want %g", p1, res.Result.Check.MaxDist, p1-0.5)
		}
		for _, sh := range res.Shards {
			if sh.FromStore {
				t.Errorf("p1 %g: shard %+v served from a store", p1, sh)
			}
		}
	}
	if st := coord.Stats(); st.StoreHits != 0 || st.StoreMisses != 0 {
		t.Errorf("store consulted for a file-ref job: %d hits, %d misses", st.StoreHits, st.StoreMisses)
	}
}
