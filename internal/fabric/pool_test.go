package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolRunCoversAllIndices checks every index runs exactly once and
// worker identities stay within bounds.
func TestPoolRunCoversAllIndices(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 1000
	counts := make([]atomic.Int32, n)
	p.Run(n, func(worker, i int) {
		if worker < 0 || worker >= p.Workers() {
			t.Errorf("worker %d out of [0, %d)", worker, p.Workers())
		}
		counts[i].Add(1)
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

// TestPoolConcurrentRuns submits from many goroutines at once — the
// engine's pipeline does exactly this (generation and egress overlap).
func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				p.Run(17, func(_, _ int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if got, want := total.Load(), int64(8*20*17); got != want {
		t.Fatalf("ran %d calls, want %d", got, want)
	}
}

// TestPoolRunAfterClose falls back to inline execution.
func TestPoolRunAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	var n atomic.Int32
	p.Run(5, func(worker, _ int) {
		if worker != 0 {
			t.Errorf("inline fallback used worker %d", worker)
		}
		n.Add(1)
	})
	if n.Load() != 5 {
		t.Fatalf("ran %d of 5", n.Load())
	}
	p.Close() // idempotent
}

// TestPoolSingleWorkerInline: a one-worker pool runs inline and in order.
func TestPoolSingleWorkerInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var order []int
	p.Run(4, func(worker, i int) {
		if worker != 0 {
			t.Errorf("worker %d on single-worker pool", worker)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("out-of-order inline run: %v", order)
		}
	}
}
