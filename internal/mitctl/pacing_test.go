package mitctl

import (
	"errors"
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

// TestWithdrawBeforeInstallAppliesNothing: a mitigation withdrawn while
// its installs still wait in the queue never reaches the hardware. No
// removal is queued for rules that were never installed, the next
// Process drops the installs, so no change is applied and no token is
// spent, and a re-request of the same spec installs afresh.
func TestWithdrawBeforeInstallAppliesNothing(t *testing.T) {
	h := newHarness(t, 4, nil)
	ctl := New(h.config())
	specs := []Spec{dropSpec(0), dropSpec(1)}
	specs[1].Scope, specs[1].Peers = ScopePerPeer, []string{memberName(2), memberName(3)}
	for _, s := range specs {
		m, err := ctl.Request(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Withdraw(m.ID, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	state := func() (queued, rules int, tokens float64) {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		return len(ctl.queue), len(ctl.rules), ctl.tokens
	}
	if queued, rules, _ := state(); queued != 3 || rules != 0 {
		t.Fatalf("after the withdrawals: %d ops queued, %d rule entries, want the 3 installs and none", queued, rules)
	}
	for now := 1.0; now <= 3; now++ {
		if n := ctl.Process(now); n != 0 {
			t.Fatalf("Process(%v) applied %d changes, want 0", now, n)
		}
		if queued, _, tokens := state(); queued != 0 || tokens != float64(h.config().QueueBurst) {
			t.Fatalf("Process(%v) left %d ops queued and %v tokens, want none and the full burst", now, queued, tokens)
		}
	}
	for i, s := range specs {
		if n := ruleCount(t, h, s.Requester); n != 0 {
			t.Fatalf("spec %d: %d rules installed", i, n)
		}
		m, err := ctl.Request(s, 4)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Process(5)
		if got, _ := ctl.Get(m.ID); got.State != StateActive || ruleCount(t, h, s.Requester) != len(m.RuleIDs) {
			t.Fatalf("spec %d re-requested: state %v, %d rules installed, want active with %d",
				i, got.State, ruleCount(t, h, s.Requester), len(m.RuleIDs))
		}
	}
}

// TestWithdrawDuringInstallLeavesNothing: a mitigation withdrawn while
// its install is being applied (the hook runs where the manager would)
// leaves no rule and no rule entry behind, whether the install succeeds
// (it pairs its own removal) or fails, with or without a retry left.
func TestWithdrawDuringInstallLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fail        bool
		maxAttempts int
	}{{"applied", false, 1}, {"failed", true, 1}, {"failed_with_retry", true, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 1, nil)
			cfg := h.config()
			cfg.Retry = RetryPolicy{MaxAttempts: tc.maxAttempts}
			var ctl *Controller
			var id string
			cfg.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
				if ch.Op != core.OpInstall || attempt > 1 {
					return nil
				}
				if err := ctl.Withdraw(id, "", now); err != nil {
					t.Error(err)
				}
				if tc.fail {
					return errors.New("refused")
				}
				return nil
			}
			ctl = New(cfg)
			m, err := ctl.Request(dropSpec(0), 0)
			if err != nil {
				t.Fatal(err)
			}
			id = m.ID
			for now := 1.0; now <= 60; now++ {
				ctl.Process(now)
			}
			ctl.mu.Lock()
			queued, rules := len(ctl.queue), len(ctl.rules)
			ctl.mu.Unlock()
			if got, _ := ctl.Get(id); got.State != StateWithdrawn || queued != 0 || rules != 0 || ruleCount(t, h, memberName(0)) != 0 {
				t.Fatalf("state %v, %d ops queued, %d rule entries, %d rules installed; want withdrawn and nothing left",
					got.State, queued, rules, ruleCount(t, h, memberName(0)))
			}
		})
	}
}
