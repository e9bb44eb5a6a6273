package engine_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/obs"
	"repro/internal/protocols/coin"
	"repro/internal/psioa"
	"repro/internal/sched"
	"repro/internal/spec"
)

// waitFinalized runs the collector until freed reaches want, failing after
// five seconds: the automata that carry the finalizers must be unreachable.
func waitFinalized(t *testing.T, freed *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d automata are still reachable", want-freed.Load(), want)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoAutomatonOutlivesItsJob: once a job returns, nothing the runner
// keeps — its pool or the answers in its cache — reaches an automaton the
// job resolved, so every component becomes garbage while the runner lives
// on. The 0.3 coin and leak, and the 0.3 coin simulated, take the tree
// route and leave answers in the cache; the dyadic jobs take the DAG
// route and leave none.
func TestNoAutomatonOutlivesItsJob(t *testing.T) {
	var made, freed atomic.Int64
	r := engine.NewRunner(engine.NewPool(2), engine.NewCache(0))
	r.Resolve = func(ref string) (psioa.PSIOA, error) {
		a, err := spec.Resolve(ref)
		if err != nil {
			return nil, err
		}
		made.Add(1)
		runtime.SetFinalizer(a, func(psioa.PSIOA) { freed.Add(1) })
		return a, nil
	}
	for _, job := range []engine.Job{
		{Kind: engine.KindCheck, Check: coinCheck()},
		{Kind: engine.KindCheck, Check: chanCheck()},
		{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{Systems: []string{"chan:real:x", "chan:env:x:1"},
			Sched: "priority", Order: []string{"send", "encrypt", "tap", "deliver"}, Bound: 8}},
		{Kind: engine.KindCheck, Check: treeCoinCheck()},
		{Kind: engine.KindCheck, Check: treeChanCheck()},
		{Kind: engine.KindSimulate, Simulate: &engine.SimulateSpec{Systems: []string{"coin:biased:x:0.3", "coin:env:x"}, Bound: 8}},
	} {
		if _, err := r.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if r.Cache.Len() == 0 {
		t.Fatal("the jobs cached nothing")
	}
	waitFinalized(t, &freed, made.Load())
	runtime.KeepAlive(r)
}

// TestCacheHoldsNoWorld: an f-dist answer outlives the world it was
// computed on, and the world does not. The 0.3 coin's trace takes the
// tree route, whose answer the cache keeps; the fair coin's takes the DAG
// route, whose answer it does not.
func TestCacheHoldsNoWorld(t *testing.T) {
	for _, c := range []struct {
		p       float64
		entries int
	}{{0.3, 1}, {0.5, 0}} {
		cache := engine.NewCache(0)
		var freed atomic.Int64
		func() {
			w := psioa.MustCompose(coin.Env("x"), coin.Flipper("x", c.p))
			runtime.SetFinalizer(w, func(*psioa.Product) { freed.Add(1) })
			s := &sched.Greedy{A: w, Bound: 6}
			if _, err := cache.FDistOpts(context.Background(), w, s, insight.Trace(), 6, nil, sched.Options{}); err != nil {
				t.Fatal(err)
			}
		}()
		if cache.Len() != c.entries {
			t.Fatalf("coin %v: cache holds %d entries, want %d", c.p, cache.Len(), c.entries)
		}
		waitFinalized(t, &freed, 1)
		runtime.KeepAlive(cache)
	}
}

// startPanicsOnce panics at its first Start call.
type startPanicsOnce struct {
	psioa.PSIOA
	panicked atomic.Bool
}

func (a *startPanicsOnce) Start() psioa.State {
	if a.panicked.CompareAndSwap(false, true) {
		panic("start fails once")
	}
	return a.PSIOA.Start()
}

// TestFingerprintPanicNotMemoized: a fingerprint computation that panics
// leaves the product's slot empty, so the next call computes the
// fingerprint, and the one after reads it back.
func TestFingerprintPanicNotMemoized(t *testing.T) {
	w := psioa.MustCompose(&startPanicsOnce{PSIOA: coin.Fair("x")}, coin.Env("x"))
	c := engine.NewCache(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the first fingerprint did not panic")
			}
		}()
		c.Fingerprint(w)
	}()
	want, err := engine.Fingerprint(psioa.MustCompose(coin.Fair("x"), coin.Env("x")), 0)
	if err != nil {
		t.Fatal(err)
	}
	counter := obs.C("engine.fingerprints")
	before := counter.Value()
	for i := 0; i < 2; i++ {
		got, err := c.Fingerprint(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d: fingerprint %s, want %s", i+2, got, want)
		}
	}
	if n := counter.Value() - before; n != 1 {
		t.Errorf("two calls after the panic computed %d fingerprints, want 1", n)
	}
}
