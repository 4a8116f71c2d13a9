package mitctl

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressConcurrentLifecycle hammers one controller with concurrent
// requesters, withdrawers, a ticking Process clock and store readers.
// Run with -race; the invariant checked at the end is convergence: after
// every requester finishes and everything is withdrawn and processed,
// the data plane holds zero rules and the store holds no live
// mitigations.
func TestStressConcurrentLifecycle(t *testing.T) {
	const (
		members    = 8
		perMember  = 40
		processors = 2
	)
	h := newHarness(t, members, nil)
	ctl := New(h.config())
	ctl.Subscribe(func(Event) {}) // exercise the event path too

	// The virtual clock only moves forward.
	var clock atomic.Int64
	now := func() float64 { return float64(clock.Add(1)) * 1e-3 }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < processors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ctl.Process(now())
					ctl.Snapshot()
				}
			}
		}()
	}
	var requesters sync.WaitGroup
	for i := 0; i < members; i++ {
		requesters.Add(1)
		go func(i int) {
			defer requesters.Done()
			for j := 0; j < perMember; j++ {
				s := dropSpec(i)
				s.Match.SrcPort = int32(1000 + j)
				if j%3 == 0 {
					s.TTL = 0.002 // expires almost immediately
				}
				m, err := ctl.Request(s, now())
				if err != nil {
					t.Error(err)
					return
				}
				ctl.Usage(m.ID)
				if j%2 == 0 {
					if err := ctl.Withdraw(m.ID, s.Requester, now()); err != nil {
						t.Error(err)
						return
					}
				} else {
					// Refresh, then withdraw.
					if _, err := ctl.Request(s, now()); err != nil {
						t.Error(err)
						return
					}
					if err := ctl.Withdraw(m.ID, s.Requester, now()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	requesters.Wait()
	close(stop)
	wg.Wait()

	// Drain whatever is still queued, far past every TTL.
	final := float64(clock.Load())*1e-3 + 1000
	ctl.Process(final)
	for ctl.PendingChanges() > 0 {
		final++
		ctl.Process(final)
	}
	if live := ctl.Active(); len(live) != 0 {
		t.Fatalf("live mitigations after convergence: %d", len(live))
	}
	for i := 0; i < members; i++ {
		if rc := ruleCount(t, h, memberName(i)); rc != 0 {
			t.Fatalf("member %d holds %d rules after convergence", i, rc)
		}
	}
	if n := ctl.ErrorCount(); n != 0 {
		t.Fatalf("%d apply errors under stress:\n%s", n, ctl.GlassErrors())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
