package mitctl

import (
	"testing"

	"stellar/internal/core"
	"stellar/internal/stats"
)

// nopManager accepts every change: the pacing test below is about when
// the controller releases a change, not what the hardware does with it.
type nopManager struct{}

func (nopManager) Apply(core.ConfigChange) error { return nil }
func (nopManager) Name() string                  { return "nop" }

// TestPacingMatchesChangeQueue is the differential oracle for the pacing
// contract. experiments.Fig10b measures core.ChangeQueue, but the bucket
// that actually paces installs is inlined in Controller.Process. Until
// the two are one, this pins them as the same policy: one seeded arrival
// trace — singletons plus a burst larger than the bucket — through both,
// stepped on the same 100 ms clock, must yield the identical per-change
// wait sequence.
func TestPacingMatchesChangeQueue(t *testing.T) {
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
	queue := core.NewChangeQueue(rate, burst)

	rng := stats.NewRand(24)
	changes := 0
	arrive := func(now float64) {
		// One single-rule mitigation is one configuration change.
		s := dropSpec(0)
		s.Match.SrcPort = int32(changes)
		if _, err := ctl.Request(s, now); err != nil {
			t.Fatal(err)
		}
		queue.Enqueue(core.ConfigChange{Op: core.OpInstall}, now)
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
		for _, d := range queue.Drain(now) {
			want = append(want, d.Waited)
		}
		ctl.Process(now)
	}

	got := ctl.Latencies()
	if changes < 200 || len(want) != changes {
		t.Fatalf("trace: %d changes, %d drained by the reference queue", changes, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("controller applied %d changes, reference queue %d", len(got), len(want))
	}
	queued := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("change %d: controller waited %v, ChangeQueue %v", i, got[i], want[i])
		}
		if want[i] > 0 {
			queued++
		}
	}
	if queued < burst {
		t.Fatalf("only %d changes waited: the trace never emptied the bucket", queued)
	}
}
