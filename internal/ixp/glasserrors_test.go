package ixp

import (
	"net/netip"
	"strings"
	"testing"

	"stellar/internal/core"
	"stellar/internal/hw"
	"stellar/internal/member"
	"stellar/internal/mitctl"
)

// TestGlassErrorsWiredToController drives a real install failure through
// the controller and asserts the member-facing looking glass reports it:
// the F1 counter moves and the last-error line names the failed change.
func TestGlassErrorsWiredToController(t *testing.T) {
	members := member.MakePopulation(member.PopulationConfig{
		N: 10, PortCapacityBps: 1e10, Seed: 11,
	})
	hook := func(ch core.ConfigChange, attempt int, now float64) error {
		if ch.Op == core.OpInstall {
			return hw.ErrL34Exhausted
		}
		return nil
	}
	x, err := Build(Config{
		ASN:              ixpASN,
		BlackholeNextHop: blackholeNH,
		Members:          members,
		EnableStellar:    true,
		QueueRate:        1000,
		QueueBurst:       1000,
		TuneController: func(mc *mitctl.Config) {
			mc.Retry = mitctl.RetryPolicy{MaxAttempts: 1}
			mc.InstallHook = hook
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Before any failure the glass shows clean counters.
	if got := x.Mitigations.GlassErrors(); !strings.Contains(got, "install errors: f1 0 f2 0") {
		t.Fatalf("pre-failure glass:\n%s", got)
	}

	victim := members[0]
	host := netip.PrefixFrom(victimAddr(victim), 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Announce(victim.Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
		t.Fatal(err)
	}
	// Drain the change queue: the install attempt hits the hook and fails.
	x.ControlTick(0, 1)

	got := x.Mitigations.GlassErrors()
	if !strings.Contains(got, "f1 1 ") {
		t.Fatalf("F1 counter not surfaced:\n%s", got)
	}
	if !strings.Contains(got, "last: ") || !strings.Contains(got, "L3-L4") {
		t.Fatalf("last error not surfaced:\n%s", got)
	}
}
