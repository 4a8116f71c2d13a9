package mitctl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/stats"
)

// collectEvents subscribes a recorder and returns the captured stream.
func collectEvents(c *Controller) func() []Event {
	var mu sync.Mutex
	var evs []Event
	c.Subscribe(func(e Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	})
	return func() []Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]Event(nil), evs...)
	}
}

func eventTypes(evs []Event) []EventType {
	out := make([]EventType, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func TestRetryBackoffRecoversFromTransientFault(t *testing.T) {
	h := newHarness(t, 2, nil)
	cfg := h.config()
	var calls int32
	cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: 0.5, MaxDelay: 4}
	cfg.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
		if ch.Op == core.OpInstall && atomic.AddInt32(&calls, 1) <= 2 {
			return errors.New("transient: management session reset")
		}
		return nil
	}
	c := New(cfg)
	events := collectEvents(c)

	m, err := c.Request(dropSpec(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 at t=1 fails; backoff 0.5 → attempt 2 at t=1.5+ fails;
	// backoff 1.0 → attempt 3 succeeds.
	for now := 1.0; now <= 6; now += 0.25 {
		c.Process(now)
	}
	got, _ := c.Get(m.ID)
	if got.State != StateActive {
		t.Fatalf("state %v after retries, want active (last error %q)", got.State, got.LastError)
	}
	if n := atomic.LoadInt32(&calls); n != 3 {
		t.Fatalf("install attempts = %d, want 3", n)
	}
	ec := c.ErrorClasses()
	if ec.Other != 2 || ec.F1+ec.F2+ec.QoS+ec.QueueDeadline != 0 {
		t.Fatalf("error classes %+v, want 2 transient in Other", ec)
	}
	var installed bool
	for _, e := range events() {
		if e.Type == EventInstalled {
			installed = true
		}
		if e.Type == EventRejected || e.Type == EventDegraded {
			t.Fatalf("unexpected %v event", e.Type)
		}
	}
	if !installed {
		t.Fatalf("no installed event; stream %v", eventTypes(events()))
	}
}

func TestRetryExhaustionRejects(t *testing.T) {
	h := newHarness(t, 2, nil)
	cfg := h.config()
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 0.25}
	cfg.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
		if ch.Op == core.OpInstall {
			return errors.New("persistent failure")
		}
		return nil
	}
	c := New(cfg)
	m, _ := c.Request(dropSpec(0), 1)
	for now := 1.0; now <= 10; now += 0.25 {
		c.Process(now)
	}
	got, _ := c.Get(m.ID)
	if got.State != StateRejected {
		t.Fatalf("state %v, want rejected after exhausting retries", got.State)
	}
	if ec := c.ErrorClasses(); ec.Other != 3 {
		t.Fatalf("error classes %+v, want 3 attempts in Other", ec)
	}
	if _, ok := c.LastError(); !ok {
		t.Fatal("LastError empty after failures")
	}
}

func TestInstallDeadlineUnderQueueStall(t *testing.T) {
	h := newHarness(t, 2, nil)
	cfg := h.config()
	cfg.InstallDeadline = 5
	c := New(cfg)
	m, _ := c.Request(dropSpec(0), 1)

	// Wedge the queue past the deadline, then recover.
	c.SetQueueStalled(true)
	for now := 1.0; now <= 8; now++ {
		c.Process(now)
	}
	if got, _ := c.Get(m.ID); got.State != StatePending {
		t.Fatalf("state %v while stalled, want pending", got.State)
	}
	if c.PendingChanges() == 0 {
		t.Fatal("queue drained while stalled")
	}
	c.SetQueueStalled(false)
	c.Process(9)
	got, _ := c.Get(m.ID)
	if got.State != StateRejected {
		t.Fatalf("state %v, want rejected (deadline passed in queue)", got.State)
	}
	if ec := c.ErrorClasses(); ec.QueueDeadline != 1 {
		t.Fatalf("error classes %+v, want 1 queue-deadline", ec)
	}
	if got.LastError == "" {
		t.Fatal("deadline rejection recorded no LastError")
	}
}

func TestQueueStallRecoveryDrains(t *testing.T) {
	h := newHarness(t, 2, nil)
	c := New(h.config())
	m, _ := c.Request(dropSpec(0), 1)
	c.SetQueueStalled(true)
	c.Process(2)
	if got, _ := c.Get(m.ID); got.State != StatePending {
		t.Fatalf("state %v during stall", got.State)
	}
	c.SetQueueStalled(false)
	c.Process(3)
	if got, _ := c.Get(m.ID); got.State != StateActive {
		t.Fatalf("state %v after stall cleared, want active", got.State)
	}
}

// TestDegradationLadder walks the full fine → coarse → fine ladder under
// a TCAM squeeze: the fine-grained install fails F1, the coarse
// RTBH-equivalent rule takes over (Degraded event), and when the squeeze
// lifts the controller reinstalls the fine spec and removes the fallback
// (Upgraded event).
func TestDegradationLadder(t *testing.T) {
	lim := hw.Limits{Ports: 2, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 8}
	h := newHarness(t, 2, &lim)
	cfg := h.config()
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: 0.5}
	cfg.Degrade = DegradePolicy{Enabled: true, Headroom: h.router.Headroom, UpgradeCooldown: 1}
	c := New(cfg)
	events := collectEvents(c)

	// Squeeze: only 2 L3-L4 criteria effective; the fine spec needs 3
	// (proto + src port + dst prefix), the coarse fallback needs 1.
	h.router.SetReserved(0, 8)
	m, err := c.Request(dropSpec(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	for now := 1.0; now <= 5; now += 0.5 {
		c.Process(now)
	}
	got, _ := c.Get(m.ID)
	if got.State != StateActive || !got.Degraded {
		t.Fatalf("state %v degraded=%v, want active+degraded (last error %q)",
			got.State, got.Degraded, got.LastError)
	}
	if n := ruleCount(t, h, memberName(0)); n != 1 {
		t.Fatalf("%d rules installed under squeeze, want 1 coarse", n)
	}
	u, err := c.Usage(m.ID)
	if err != nil {
		t.Fatalf("usage while degraded: %v", err)
	}
	_ = u // live coarse rule counters roll up without error

	// Squeeze lifts: next Process should start the upgrade.
	h.router.SetReserved(0, 0)
	for now := 5.5; now <= 12; now += 0.5 {
		c.Process(now)
	}
	got, _ = c.Get(m.ID)
	if got.State != StateActive || got.Degraded {
		t.Fatalf("state %v degraded=%v after headroom returned, want active+fine", got.State, got.Degraded)
	}
	if n := ruleCount(t, h, memberName(0)); n != 1 {
		t.Fatalf("%d rules after upgrade, want 1 fine", n)
	}
	var saw []EventType
	for _, e := range events() {
		if e.Type == EventDegraded || e.Type == EventUpgraded {
			saw = append(saw, e.Type)
		}
	}
	if len(saw) != 2 || saw[0] != EventDegraded || saw[1] != EventUpgraded {
		t.Fatalf("ladder events %v, want [degraded upgraded]", saw)
	}

	// Withdraw cleans up the fine rule completely.
	if err := c.Withdraw(m.ID, memberName(0), 13); err != nil {
		t.Fatal(err)
	}
	c.Process(14)
	if n := ruleCount(t, h, memberName(0)); n != 0 {
		t.Fatalf("%d rules after withdraw, want 0", n)
	}
	if mac, l34 := h.router.Totals(); mac != 0 || l34 != 0 {
		t.Fatalf("TCAM leak after withdraw: %d MAC, %d L3-L4", mac, l34)
	}
}

// TestDegradedExpiryRemovesCoarseRule pins that a mitigation expiring
// while degraded removes the coarse fallback (it rode RuleIDs).
func TestDegradedExpiryRemovesCoarseRule(t *testing.T) {
	lim := hw.Limits{Ports: 2, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 8}
	h := newHarness(t, 2, &lim)
	cfg := h.config()
	cfg.Degrade = DegradePolicy{Enabled: true}
	c := New(cfg)
	h.router.SetReserved(0, 8)
	spec := dropSpec(0)
	spec.TTL = 3
	m, _ := c.Request(spec, 1)
	c.Process(1)
	c.Process(2)
	if got, _ := c.Get(m.ID); !got.Degraded {
		t.Fatalf("not degraded: %+v", got)
	}
	c.Process(10) // expire
	c.Process(11)
	if got, _ := c.Get(m.ID); got.State != StateExpired {
		t.Fatalf("state %v, want expired", got.State)
	}
	if mac, l34 := h.router.Totals(); mac != 0 || l34 != 0 {
		t.Fatalf("TCAM leak after degraded expiry: %d/%d", mac, l34)
	}
}

// TestCoarseSpecHasNoLowerRung: an RTBH-equivalent request that fails on
// resources rejects instead of degrading to itself.
func TestCoarseSpecHasNoLowerRung(t *testing.T) {
	lim := hw.Limits{Ports: 2, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 8}
	h := newHarness(t, 2, &lim)
	cfg := h.config()
	cfg.Degrade = DegradePolicy{Enabled: true}
	c := New(cfg)
	h.router.SetReserved(0, 10) // zero effective budget
	spec := Spec{Requester: memberName(0), Target: h.target(0), Action: fabric.ActionDrop}
	m, _ := c.Request(spec, 1)
	c.Process(1)
	c.Process(2)
	got, _ := c.Get(m.ID)
	if got.State != StateRejected || got.Degraded {
		t.Fatalf("coarse spec under squeeze: state %v degraded=%v, want rejected", got.State, got.Degraded)
	}
}

// TestErrorClassCounters is the table-driven looking-glass counter test:
// each hardware error class lands in its own bucket.
func TestErrorClassCounters(t *testing.T) {
	cases := []struct {
		name string
		err  error
		get  func(ErrorClassCounts) int
	}{
		{"f1", hw.ErrL34Exhausted, func(e ErrorClassCounts) int { return e.F1 }},
		{"f2", hw.ErrMACExhausted, func(e ErrorClassCounts) int { return e.F2 }},
		{"qos", hw.ErrQoSPoliciesExhausted, func(e ErrorClassCounts) int { return e.QoS }},
		{"wrapped-f1", fmt.Errorf("manager: %w", hw.ErrL34Exhausted), func(e ErrorClassCounts) int { return e.F1 }},
		{"other", errors.New("cable unplugged"), func(e ErrorClassCounts) int { return e.Other }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2, nil)
			cfg := h.config()
			cfg.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
				if ch.Op == core.OpInstall {
					return tc.err
				}
				return nil
			}
			c := New(cfg)
			if _, err := c.Request(dropSpec(0), 1); err != nil {
				t.Fatal(err)
			}
			c.Process(1)
			ec := c.ErrorClasses()
			if tc.get(ec) != 1 || ec.Total() != 1 {
				t.Fatalf("classes %+v, want exactly one %s", ec, tc.name)
			}
			last, ok := c.LastError()
			if !ok || !errors.Is(last.Err, tc.err) && last.Err.Error() != tc.err.Error() {
				t.Fatalf("last error %v, want %v", last.Err, tc.err)
			}
		})
	}
}

// TestRetryJitterDeterministic: identical seeds reproduce the identical
// apply timeline; a different seed may differ (jitter draws differ).
func TestRetryJitterDeterministic(t *testing.T) {
	run := func(seed uint64) []float64 {
		h := newHarness(t, 2, nil)
		cfg := h.config()
		cfg.Seed = seed
		cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: 0.5, MaxDelay: 8, Jitter: 0.5}
		var mu sync.Mutex
		var times []float64
		fail := 2
		cfg.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
			mu.Lock()
			defer mu.Unlock()
			times = append(times, now)
			if ch.Op == core.OpInstall && fail > 0 {
				fail--
				return errors.New("transient")
			}
			return nil
		}
		c := New(cfg)
		c.Request(dropSpec(0), 1)
		for now := 1.0; now <= 20; now += 0.125 {
			c.Process(now)
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]float64(nil), times...)
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("timelines differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded timelines diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestStressConcurrentFaultsWithRetries hammers Request / Withdraw /
// Process concurrently while the install hook injects deterministic-rate
// failures, with retries and the ladder active; run under -race. The
// invariant: after the storm, withdrawing everything and draining leaves
// zero installed rules and zero TCAM allocation.
func TestStressConcurrentFaultsWithRetries(t *testing.T) {
	const members = 8
	h := newHarness(t, members, nil)
	cfg := h.config()
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 0.1, MaxDelay: 1, Jitter: 0.3}
	cfg.Degrade = DegradePolicy{Enabled: true, Headroom: h.router.Headroom, UpgradeCooldown: 0.5}
	var ctr uint64
	var inject atomic.Bool
	inject.Store(true)
	cfg.InstallHook = func(ch core.ConfigChange, attempt int, now float64) error {
		// Deterministic-rate pseudo-random failures: ~1 in 4 installs.
		// Removals stay fault-free: a remove whose retries exhaust leaks
		// its rule by design (surfaced via ErrorClasses, reconciled by
		// the operator), which would void the zero-leak invariant below.
		if ch.Op == core.OpInstall && inject.Load() && atomic.AddUint64(&ctr, 1)%4 == 0 {
			return fmt.Errorf("injected: %w", hw.ErrL34Exhausted)
		}
		return nil
	}
	c := New(cfg)

	var wg sync.WaitGroup
	var clock int64 // hundredths of a second, shared monotone clock
	now := func() float64 { return float64(atomic.LoadInt64(&clock)) / 100 }
	for g := 0; g < members; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRand(uint64(g) + 1)
			for i := 0; i < 50; i++ {
				spec := dropSpec(g)
				spec.Match.SrcPort = int32(100 + rng.Intn(8)) // a few distinct specs
				m, err := c.Request(spec, now())
				if err != nil {
					continue
				}
				if rng.Intn(2) == 0 {
					c.Withdraw(m.ID, spec.Requester, now())
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			atomic.AddInt64(&clock, 5)
			c.Process(now())
		}
	}()
	wg.Wait()

	// Quiesce: withdraw everything, lift faults, drain with time advancing
	// past every backoff.
	inject.Store(false)
	for _, m := range c.Active() {
		c.Withdraw(m.ID, "", now())
	}
	for i := 0; i < 400; i++ {
		atomic.AddInt64(&clock, 10)
		c.Process(now())
	}
	if n := c.PendingChanges(); n != 0 {
		t.Fatalf("queue not drained: %d pending", n)
	}
	if n := h.mgr.InstalledCount(); n != 0 {
		t.Fatalf("%d rules leaked after withdraw-all", n)
	}
	if mac, l34 := h.router.Totals(); mac != 0 || l34 != 0 {
		t.Fatalf("TCAM leak: %d MAC, %d L3-L4", mac, l34)
	}
}
