package engine_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
)

// goroutineID returns the ID runtime.Stack prints for the calling
// goroutine ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

// TestPoolMapReusesGoroutines: a Map of 1000 tasks on a 2-worker pool
// runs them on at most 2 goroutines, and a Map of fewer tasks than
// workers on at most one per task.
func TestPoolMapReusesGoroutines(t *testing.T) {
	for _, c := range []struct{ workers, n, want int }{{2, 1000, 2}, {8, 3, 3}} {
		var mu sync.Mutex
		ids := map[string]bool{}
		err := engine.NewPool(c.workers).Map(context.Background(), c.n, func(int) error {
			id := goroutineID()
			mu.Lock()
			ids[id] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) > c.want {
			t.Errorf("%d tasks on %d workers ran on %d goroutines, want at most %d", c.n, c.workers, len(ids), c.want)
		}
	}
}
