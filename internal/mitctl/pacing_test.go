package mitctl

import (
	"math"
	"testing"

	"stellar/internal/core"
	"stellar/internal/stats"
)

// nopManager accepts every change: the pacing tests are about when the
// controller releases a change, not what the hardware does with it.
type nopManager struct{}

func (nopManager) Apply(core.ConfigChange) error { return nil }
func (nopManager) Name() string                  { return "nop" }

// refBucket is the pacing contract written out on its own: refill
// rate·dt, clamp to the burst, start full, one token per change, FIFO.
type refBucket struct {
	rate, burst, tokens, last float64
	arrivals                  []float64 // queued changes' arrival times, FIFO
}

func newRefBucket(rate float64, burst int) *refBucket {
	return &refBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// drain refills the bucket up to now and returns the waits of the
// changes it releases, in release order.
func (b *refBucket) drain(now float64) []float64 {
	if now > b.last {
		b.tokens = math.Min(b.tokens+(now-b.last)*b.rate, b.burst)
		b.last = now
	}
	var waits []float64
	for len(b.arrivals) > 0 && b.tokens >= 1 {
		waits = append(waits, now-b.arrivals[0])
		b.arrivals = b.arrivals[1:]
		b.tokens--
	}
	return waits
}

// TestPacingMatchesReferenceBucket is the differential oracle for the
// pacing contract Figure 10(b) measures on the controller: one seeded
// arrival trace — singletons plus a burst larger than the bucket —
// through the controller and through refBucket, stepped on the same
// 100 ms clock, must yield the identical per-change wait sequence. The
// controller's waits are read off its event stream, as fig10b reads
// them. The trace checks the rate, the burst clamp and FIFO order.
func TestPacingMatchesReferenceBucket(t *testing.T) {
	const (
		rate  = 4.33 // production change rate, Figure 10a
		burst = 20
		dt    = 0.1
		steps = 1200
	)
	h := newHarness(t, 1, nil)
	cfg := h.config()
	cfg.Manager = nopManager{}
	cfg.QueueRate, cfg.QueueBurst = rate, burst
	ctl := New(cfg)
	var got []float64
	ctl.Subscribe(func(ev Event) {
		if ev.Type == EventInstalled {
			got = append(got, ev.Time-ev.Mitigation.RequestedAt)
		}
	})
	ref := newRefBucket(rate, burst)

	rng := stats.NewRand(24)
	changes := 0
	arrive := func(now float64) {
		// One single-rule mitigation is one configuration change.
		s := dropSpec(0)
		s.Match.SrcPort = int32(changes)
		if _, err := ctl.Request(s, now); err != nil {
			t.Fatal(err)
		}
		ref.arrivals = append(ref.arrivals, now)
		changes++
	}
	var want []float64
	for step := 1; step <= steps; step++ {
		now := float64(step) * dt
		switch {
		case step == 300:
			for i := 0; i < 3*burst; i++ { // overflows the bucket
				arrive(now)
			}
		case rng.Float64() < 0.25:
			arrive(now)
		}
		want = append(want, ref.drain(now)...)
		ctl.Process(now)
	}

	if changes < 200 || len(want) != changes {
		t.Fatalf("trace: %d changes, %d drained by the reference bucket", changes, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("controller installed %d changes, reference bucket %d", len(got), len(want))
	}
	queued := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("change %d: controller waited %v, reference bucket %v", i, got[i], want[i])
		}
		if want[i] > 0 {
			queued++
		}
	}
	if queued < burst {
		t.Fatalf("only %d changes waited: the trace never emptied the bucket", queued)
	}
}

// TestQueueRetentionAfterBurst: Process compacts the queue in place, so
// the slots past the ops still queued must be cleared, or they keep
// released changes and their mitigations reachable; and once a burst
// has drained, its backing array goes too, down to a small one kept for
// reuse.
func TestQueueRetentionAfterBurst(t *testing.T) {
	const burst = 1024
	h := newHarness(t, 1, nil)
	cfg := h.config()
	cfg.Manager = nopManager{}
	cfg.QueueRate, cfg.QueueBurst = 100, 100
	ctl := New(cfg)
	for i := 0; i < burst; i++ {
		s := dropSpec(0)
		s.Match.SrcPort = int32(i)
		if _, err := ctl.Request(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	queue := func() []queuedOp {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		return ctl.queue
	}
	if n := len(queue()); n != burst {
		t.Fatalf("%d ops queued, want %d", n, burst)
	}
	installed := 0
	for now := 1.0; len(queue()) > 0; now++ {
		installed += ctl.Process(now)
		q := queue()
		for i, op := range q[len(q):cap(q)] {
			if op.m != nil || op.change != (core.ConfigChange{}) {
				t.Fatalf("t=%v: slot %d past the %d queued ops still holds %s", now, len(q)+i, len(q), op.change)
			}
		}
	}
	if installed != burst {
		t.Fatalf("installed %d changes, want %d", installed, burst)
	}
	if c := cap(queue()); c > maxIdleQueueCap {
		t.Fatalf("the drained queue keeps an array of %d ops, want at most %d", c, maxIdleQueueCap)
	}
}
