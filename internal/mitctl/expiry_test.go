package mitctl

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"testing"
	"time"

	"stellar/internal/fabric"
	"stellar/internal/stats"
)

// expirySpec is a single-rule drop mitigation with an explicit ID, so
// any number of them can share a requester and target.
func expirySpec(id string, ttl float64) Spec {
	return Spec{
		ID: id, Requester: "AS64512", TTL: ttl,
		Target: netip.MustParsePrefix("100.0.0.10/32"),
		Match:  fabric.MatchAll(), Action: fabric.ActionDrop,
	}
}

// TestProcessCostIndependentOfTableSize pins the TTL watermark: an idle
// Process tick — nothing due, nothing queued — does the same work with
// 50 000 standing mitigations as with 10, and allocates nothing. The
// mitigations never expire, so a Process that walks the store for due
// TTLs pays for every one of them on every tick.
func TestProcessCostIndependentOfTableSize(t *testing.T) {
	idle := func(standing int) (ns, allocs float64) {
		ctl := New(Config{Manager: nopManager{}, QueueRate: 1e6, QueueBurst: 1 << 20})
		for i := 0; i < standing; i++ {
			if _, err := ctl.Request(expirySpec(fmt.Sprintf("standing-%d", i), 0), 0); err != nil {
				t.Fatal(err)
			}
		}
		ctl.Process(0)
		if got := len(ctl.Active()); got != standing || ctl.PendingChanges() != 0 {
			t.Fatalf("%d of %d standing mitigations live, %d changes queued", got, standing, ctl.PendingChanges())
		}
		now := 1.0
		tick := func() {
			ctl.Process(now)
			now += 0.1
		}
		allocs = testing.AllocsPerRun(100, tick)
		const batch = 2000
		ns = math.Inf(1)
		for b := 0; b < 7; b++ {
			start := time.Now()
			for i := 0; i < batch; i++ {
				tick()
			}
			ns = math.Min(ns, float64(time.Since(start).Nanoseconds())/batch)
		}
		return ns, allocs
	}
	smallNs, smallAllocs := idle(10)
	largeNs, largeAllocs := idle(50000)
	t.Logf("idle Process: %.0f ns at 10 standing, %.0f ns at 50 000", smallNs, largeNs)
	if smallAllocs != 0 || largeAllocs != 0 {
		t.Fatalf("idle Process allocates: %v at 10 standing, %v at 50 000", smallAllocs, largeAllocs)
	}
	if largeNs > 4*smallNs {
		t.Fatalf("idle Process grows with the table: %.0f ns at 10 standing, %.0f ns at 50 000 (%.1fx)",
			smallNs, largeNs, largeNs/smallNs)
	}
}

// TestIdleProcessWithSubscriberAllocs pins the controller tick's
// scratch: with a subscriber attached, an idle Process after a busy one
// allocates nothing — the subscriber list is read, not copied, and the
// tick's event and release slices are reused — and the busy tick's
// scratch points at no event or change once it returns.
func TestIdleProcessWithSubscriberAllocs(t *testing.T) {
	ctl := New(Config{Manager: nopManager{}, QueueRate: 1e6, QueueBurst: 1 << 20})
	events := 0
	ctl.Subscribe(func(Event) { events++ })
	for i := 0; i < 8; i++ {
		if _, err := ctl.Request(expirySpec(fmt.Sprintf("standing-%d", i), 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	if applied := ctl.Process(0); applied != 8 {
		t.Fatalf("busy tick applied %d changes, want 8", applied)
	}
	if events != 8*3 { // requested, validated, installed
		t.Fatalf("subscriber saw %d events, want %d", events, 8*3)
	}
	if cap(ctl.pending) == 0 || cap(ctl.released) == 0 {
		t.Fatalf("busy tick kept no scratch: pending cap %d, released cap %d", cap(ctl.pending), cap(ctl.released))
	}
	for i, ev := range ctl.pending[:cap(ctl.pending)] {
		if ev.Mitigation.ID != "" {
			t.Fatalf("pending scratch slot %d still holds %s", i, ev.Mitigation.ID)
		}
	}
	for i, op := range ctl.released[:cap(ctl.released)] {
		if op.m != nil {
			t.Fatalf("released scratch slot %d still holds %s", i, op.m.ID)
		}
	}
	now := 1.0
	if allocs := testing.AllocsPerRun(100, func() {
		ctl.Process(now)
		now += 0.1
	}); allocs != 0 {
		t.Fatalf("idle Process with a subscriber allocates %v objects a tick", allocs)
	}
	if events != 8*3 {
		t.Fatalf("idle ticks emitted %d events", events-8*3)
	}
}

// TestExpiryMatchesFullScan is the differential oracle for the TTL
// watermark. A seeded mix of requests (TTL 0, short or long), refreshes
// to a shorter, longer or zero TTL, withdrawals, re-requests after a
// final state and Process calls at non-decreasing times runs against a
// model that scans every live mitigation on every Process. Every
// EventExpired — its time and the ID order within a tick — must match
// the model, and after every step nextDue must be no later than any
// live mitigation's deadline.
func TestExpiryMatchesFullScan(t *testing.T) {
	const (
		ids   = 40
		steps = 2000
	)
	ctl := New(Config{Manager: nopManager{}, QueueRate: 1e6, QueueBurst: 1 << 20})
	var expired []Event
	ctl.Subscribe(func(ev Event) {
		if ev.Type == EventExpired {
			expired = append(expired, ev)
		}
	})
	// model: the deadline of every live mitigation (0: never expires).
	model := make(map[string]float64)
	rng := stats.NewRand(33)
	ttl := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return 0.1 + 2*rng.Float64()
		default:
			return 20 + 60*rng.Float64()
		}
	}
	now := 0.0
	var refreshes, finals, expiries int
	for step := 0; step < steps; step++ {
		id := fmt.Sprintf("m%02d", rng.Intn(ids))
		_, live := model[id]
		switch r := rng.Float64(); {
		case r < 0.45:
			d, deadline := ttl(), 0.0
			if d > 0 {
				deadline = now + d
			}
			m, err := ctl.Request(expirySpec(id, d), now)
			if err != nil {
				t.Fatal(err)
			}
			if m.ExpiresAt != deadline {
				t.Fatalf("step %d: %s expires at %v, want %v", step, id, m.ExpiresAt, deadline)
			}
			if live {
				refreshes++
			}
			model[id] = deadline
		case r < 0.6:
			if live {
				if err := ctl.Withdraw(id, "", now); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
				finals++
			}
		default:
			if rng.Intn(4) > 0 { // a quarter of the ticks repeat the clock
				now += 1.5 * rng.Float64()
			}
			var want []string
			for id, at := range model {
				if at > 0 && at <= now {
					want = append(want, id)
					delete(model, id)
				}
			}
			sort.Strings(want)
			expired = expired[:0]
			ctl.Process(now)
			if len(expired) != len(want) {
				t.Fatalf("step %d, t=%v: %d expired, the full scan expires %v", step, now, len(expired), want)
			}
			for i, ev := range expired {
				if ev.Mitigation.ID != want[i] || ev.Time != now {
					t.Fatalf("step %d: expiry %d is %s at %v, the full scan has %s at %v",
						step, i, ev.Mitigation.ID, ev.Time, want[i], now)
				}
			}
			expiries += len(want)
			finals += len(want)
		}
		ctl.mu.Lock()
		for _, m := range ctl.mits {
			if !m.State.Final() && m.ExpiresAt > 0 && ctl.nextDue > m.ExpiresAt {
				ctl.mu.Unlock()
				t.Fatalf("step %d: nextDue %v is past %s's deadline %v", step, ctl.nextDue, m.ID, m.ExpiresAt)
			}
		}
		ctl.mu.Unlock()
	}
	if refreshes < 100 || finals < 100 || expiries < 50 {
		t.Fatalf("trace too tame: %d refreshes, %d final transitions, %d expiries", refreshes, finals, expiries)
	}
}
