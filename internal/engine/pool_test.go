package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		var hit [8]int32
		for round := 0; round < 3; round++ { // reuse across runs
			for i := range hit {
				hit[i] = 0
			}
			p.Run(func(w int) { atomic.AddInt32(&hit[w], 1) })
			for w := 0; w < workers; w++ {
				if hit[w] != 1 {
					t.Fatalf("workers=%d round %d: worker %d ran %d times", workers, round, w, hit[w])
				}
			}
		}
		p.Close()
	}
}

func TestPoolDefaultSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default pool size %d, want GOMAXPROCS %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
}

func TestPoolPanicPropagatesAndPoolSurvives(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for round := 0; round < 2; round++ { // the pool must stay usable after a panic
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("round %d: worker panic not propagated", round)
				}
			}()
			p.Run(func(w int) {
				if w == round%2 { // panic on the caller slot and on a spawned worker
					panic("boom")
				}
			})
		}()
		var ran int32
		p.Run(func(w int) { atomic.AddInt32(&ran, 1) })
		if int(ran) != p.Workers() {
			t.Fatalf("round %d: pool broken after panic: %d/%d workers ran", round, ran, p.Workers())
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
	var nilPool *Pool
	nilPool.Close() // must not crash
}

// normalizeResult zeroes the wall-clock fields, which are excluded from
// the determinism guarantee.
func normalizeResult(r RouteResult) RouteResult {
	r.Workers = 0
	r.Elapsed = 0
	r.WorkerBusy = 0
	return r
}
