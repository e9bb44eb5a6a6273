package durable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/resilience"
)

// durableRig is one daemon incarnation: a manager over a shared directory
// plus a fresh engine store and runner, as a restart would build them.
type durableRig struct {
	dm    *durable.Manager
	store *engine.Store
	run   *engine.Runner
}

func newRig(t *testing.T, dir string) *durableRig {
	t.Helper()
	ds, err := durable.Open(filepath.Join(dir, "store"), durable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := durable.OpenJournal(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	dm := durable.NewManager(jr, ds)
	rig := &durableRig{
		dm:    dm,
		store: engine.NewStoreWith(engine.StoreConfig{Journal: dm}),
		run:   engine.NewRunner(engine.NewPool(2), engine.NewCache(64)),
	}
	t.Cleanup(func() { jr.Close() })
	return rig
}

func checkJob(seed int) engine.Job {
	return boundJob(seed, 4)
}

// boundJob is checkJob with an explicit exploration bound. The kernel memos
// key on (automaton, bound) but not seed, so a job that must provably enter
// the kernel (e.g. to hit an armed FaultSlowOp under a pending kill) needs a
// bound no earlier job in the process has computed.
func boundJob(seed, bound int) engine.Job {
	return engine.Job{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{
		Systems: []string{"coin:fair:x", "coin:env:x"}, Bound: bound, Seed: uint64(seed),
	}}
}

// TestReplayKillRestart is the tentpole crash test: a daemon is "SIGKILLed"
// (all journal appends and store publications dropped) with one job done
// and two accepted-but-unfinished; the restarted incarnation replays the
// journal with zero lost jobs — the done job is served from the disk store
// byte-identically, the unfinished ones are re-enqueued and complete.
func TestReplayKillRestart(t *testing.T) {
	dir := t.TempDir()
	rig1 := newRig(t, dir)

	// Job A completes before the crash: its result is in the store and its
	// done record in the journal.
	recA, err := rig1.store.Submit(context.Background(), rig1.run, checkJob(1))
	if err != nil {
		t.Fatal(err)
	}
	finA, err := rig1.store.Await(context.Background(), recA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finA.Status != engine.StatusDone {
		t.Fatalf("job A = %+v", finA)
	}
	storedA, err := rig1.dm.Store().Get(ctx, finA.Fingerprint)
	if err != nil {
		t.Fatalf("job A not published to the disk store: %v", err)
	}

	// Jobs B and C are accepted but crawl (injected kernel delay; fresh
	// bounds so job A's memos can't serve them), so the kill catches them
	// before any terminal record lands.
	restore := resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	jobCtx, jobCancel := context.WithCancel(context.Background())
	recB, err := rig1.store.Submit(jobCtx, rig1.run, boundJob(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	recC, err := rig1.store.Submit(jobCtx, rig1.run, boundJob(3, 6))
	if err != nil {
		t.Fatal(err)
	}

	// SIGKILL: no more journal appends, no more publications. Then tear the
	// process down (cancel kills the delayed kernels via their checkpoints).
	rig1.dm.Kill()
	jobCancel()
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := rig1.store.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	restore()

	// Restart: a fresh incarnation over the same directory.
	rig2 := newRig(t, dir)
	stats, err := rig2.dm.Replay(context.Background(), rig2.store, rig2.run)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 || stats.Restored != 1 {
		t.Errorf("replay stats = %+v, want 1 restored/served (job A)", stats)
	}
	if stats.Requeued != 2 {
		t.Errorf("replay stats = %+v, want 2 requeued (jobs B, C)", stats)
	}

	// Job A: already terminal, served from disk, byte-identical.
	gotA, ok := rig2.store.Get(recA.ID)
	if !ok || gotA.Status != engine.StatusDone || gotA.Result == nil {
		t.Fatalf("restored job A = %+v", gotA)
	}
	replayedA, err := json.Marshal(gotA.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayedA, storedA) {
		t.Errorf("restored result not byte-identical:\n got %s\nwant %s", replayedA, storedA)
	}

	// Jobs B and C: zero lost — re-enqueued under their original IDs and
	// run to completion.
	for _, id := range []string{recB.ID, recC.ID} {
		awaitCtx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
		fin, err := rig2.store.Await(awaitCtx, id)
		acancel()
		if err != nil {
			t.Fatalf("await replayed %s: %v", id, err)
		}
		if fin.Status != engine.StatusDone {
			t.Fatalf("replayed %s = %+v, want done", id, fin)
		}
	}
	// The requeued jobs journal their completion, so a further restart
	// would serve them from the store too.
	if _, err := rig2.dm.Store().Get(ctx, boundJob(2, 5).Fingerprint()); err != nil {
		t.Errorf("requeued job result not published: %v", err)
	}
}

// TestReplayIdempotencyGuard pins the publish-before-journal window: the
// process died after writing job X's result to the store but before its
// done record hit the journal. Replay must serve the stored result, not
// recompute — proven by arming a panic fault that would fail any rerun.
func TestReplayIdempotencyGuard(t *testing.T) {
	dir := t.TempDir()
	rig1 := newRig(t, dir)
	rec, err := rig1.store.Submit(context.Background(), rig1.run, checkJob(7))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := rig1.store.Await(context.Background(), rec.ID)
	if err != nil || fin.Status != engine.StatusDone {
		t.Fatalf("phase 1: %+v, %v", fin, err)
	}

	// Drop the done record from the journal — the exact on-disk state of a
	// crash between store publication and journal append.
	jpath := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if !strings.Contains(line, `"t":"done"`) {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(jpath, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Any recomputation would panic; serving from the store must not.
	restore := resilience.InstallInjector(resilience.NewInjector(3).
		Arm(resilience.FaultTransitionPanic, 1))
	defer restore()

	rig2 := newRig(t, dir)
	stats, err := rig2.dm.Replay(context.Background(), rig2.store, rig2.run)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 || stats.Requeued != 0 {
		t.Fatalf("replay stats = %+v, want served=1 requeued=0", stats)
	}
	got, ok := rig2.store.Get(rec.ID)
	if !ok || got.Status != engine.StatusDone || got.Result == nil {
		t.Fatalf("guarded job = %+v, want done with the stored result", got)
	}
}

// TestReplayCorruptEntryRecomputes pins quarantine-and-recompute across a
// restart: the done job's store entry is bit-flipped on disk, so replay
// quarantines it and re-enqueues the job; the recomputed result is
// byte-identical to the pre-corruption bytes.
func TestReplayCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	rig1 := newRig(t, dir)
	rec, err := rig1.store.Submit(context.Background(), rig1.run, checkJob(9))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := rig1.store.Await(context.Background(), rec.ID)
	if err != nil || fin.Status != engine.StatusDone {
		t.Fatalf("phase 1: %+v, %v", fin, err)
	}
	original, err := rig1.dm.Store().Get(ctx, fin.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in the committed entry.
	storeDir := filepath.Join(dir, "store")
	des, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "e-") {
			p := filepath.Join(storeDir, de.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x01
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("no committed entry found to corrupt")
	}

	rig2 := newRig(t, dir)
	stats, err := rig2.dm.Replay(context.Background(), rig2.store, rig2.run)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 || stats.Served != 0 {
		t.Fatalf("replay stats = %+v, want requeued=1 served=0 (corrupt entry)", stats)
	}
	awaitCtx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer acancel()
	fin2, err := rig2.store.Await(awaitCtx, rec.ID)
	if err != nil || fin2.Status != engine.StatusDone {
		t.Fatalf("recomputed job = %+v, %v", fin2, err)
	}
	recomputed, err := rig2.dm.Store().Get(ctx, fin2.Fingerprint)
	if err != nil {
		t.Fatalf("recomputed result not republished: %v", err)
	}
	if !bytes.Equal(recomputed, original) {
		t.Errorf("recomputed entry not byte-identical:\n got %s\nwant %s", recomputed, original)
	}
	if st := rig2.dm.Store().Stats(); st.Corrupt != 1 {
		t.Errorf("store stats = %+v, want corrupt=1", st)
	}
}

// TestReplayRejectsForeignEntry pins replay's decode rule: a store entry
// under a journaled job's fingerprint is restored only if it is a result of
// that job's kind. Any peer can PUT /v1/store/<fp> on a durable worker, and
// that write lands in the disk key space replay reads; an empty, null or
// wrong-kind body must send the job back to recomputation, not restore it
// as done with an empty result.
func TestReplayRejectsForeignEntry(t *testing.T) {
	for _, body := range []string{`{}`, `null`, `{"kind":"check"}`} {
		t.Run(body, func(t *testing.T) {
			dir := t.TempDir()
			rig1 := newRig(t, dir)
			rec, err := rig1.store.Submit(context.Background(), rig1.run, checkJob(13))
			if err != nil {
				t.Fatal(err)
			}
			fin, err := rig1.store.Await(context.Background(), rec.ID)
			if err != nil || fin.Status != engine.StatusDone {
				t.Fatalf("phase 1: %+v, %v", fin, err)
			}
			original, err := rig1.dm.Store().Get(ctx, fin.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			if err := rig1.dm.Store().Put(ctx, fin.Fingerprint, []byte(body)); err != nil {
				t.Fatal(err)
			}

			rig2 := newRig(t, dir)
			stats, err := rig2.dm.Replay(context.Background(), rig2.store, rig2.run)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Requeued != 1 || stats.Served != 0 {
				t.Fatalf("replay stats = %+v, want requeued=1 served=0 (foreign entry)", stats)
			}
			awaitCtx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer acancel()
			fin2, err := rig2.store.Await(awaitCtx, rec.ID)
			if err != nil || fin2.Status != engine.StatusDone || fin2.Result == nil || fin2.Result.Simulate == nil {
				t.Fatalf("recomputed job = %+v, %v", fin2, err)
			}
			republished, err := rig2.dm.Store().Get(ctx, fin.Fingerprint)
			if err != nil || !bytes.Equal(republished, original) {
				t.Errorf("republished entry = %s, %v; want %s", republished, err, original)
			}
		})
	}
}

// TestReplayFailureClasses pins the failed-record semantics: a genuine
// failure (class "panic") is restored as-is — deterministic work would fail
// again — while a shutdown-interrupted job (class "cancelled") is
// re-enqueued and completes.
func TestReplayFailureClasses(t *testing.T) {
	dir := t.TempDir()
	rig1 := newRig(t, dir)

	// A genuine failure, recorded naturally through the sink.
	restore := resilience.InstallInjector(resilience.NewInjector(5).
		Arm(resilience.FaultTransitionPanic, 1))
	recF, err := rig1.store.Submit(context.Background(), rig1.run, checkJob(11))
	if err != nil {
		t.Fatal(err)
	}
	finF, err := rig1.store.Await(context.Background(), recF.ID)
	if err != nil || finF.Status != engine.StatusFailed || finF.ErrClass != "panic" {
		t.Fatalf("panicking job = %+v, %v", finF, err)
	}
	restore()

	// A shutdown-cancelled job, likewise recorded naturally (fresh bound so
	// no memo can serve it past the armed delay).
	restore = resilience.InstallInjector(resilience.NewInjector(1).
		ArmDelay(resilience.FaultSlowOp, 1, 10*time.Second))
	jobCtx, jobCancel := context.WithCancel(context.Background())
	recC, err := rig1.store.Submit(jobCtx, rig1.run, boundJob(12, 5))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it enter the delayed kernel
	jobCancel()
	finC, err := rig1.store.Await(context.Background(), recC.ID)
	if err != nil || finC.Status != engine.StatusFailed || finC.ErrClass != "cancelled" {
		t.Fatalf("cancelled job = %+v, %v", finC, err)
	}
	restore()

	rig2 := newRig(t, dir)
	stats, err := rig2.dm.Replay(context.Background(), rig2.store, rig2.run)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != 1 || stats.Requeued != 1 {
		t.Fatalf("replay stats = %+v, want restored=1 (panic) requeued=1 (cancelled)", stats)
	}
	gotF, ok := rig2.store.Get(recF.ID)
	if !ok || gotF.Status != engine.StatusFailed || gotF.ErrClass != "panic" {
		t.Fatalf("restored failure = %+v, want failed/panic", gotF)
	}
	awaitCtx, acancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer acancel()
	gotC, err := rig2.store.Await(awaitCtx, recC.ID)
	if err != nil || gotC.Status != engine.StatusDone {
		t.Fatalf("requeued cancelled job = %+v, %v, want done", gotC, err)
	}
}
