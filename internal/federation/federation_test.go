package federation

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"stellar/internal/conformance"
)

// loadGossip returns the federation's default workload profile.
func loadGossip(t *testing.T) *conformance.Profile {
	t.Helper()
	p, err := conformance.Load("federation-gossip")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSignalPropagation is the acceptance bar of the subsystem: a
// 10-exchange federation with shared victims completes with a single
// consolidated report, and a mitigation spec originating at exchange 0
// is installed at all 10 exchanges within the configured gossip delay.
func TestSignalPropagation(t *testing.T) {
	const (
		exchanges = 10
		victims   = 2
		mitigate  = 20 // the profile's mitigate tick
		delay     = 3
	)
	p := loadGossip(t)
	seed, events := p.Topology.Seed, slices.Clone(p.Events)
	fed, err := Build(p, exchanges, delay)
	if err != nil {
		t.Fatal(err)
	}
	// The per-exchange seed offsets and the event filter work on copies.
	if p.Topology.Seed != seed || !reflect.DeepEqual(p.Events, events) {
		t.Fatalf("Build changed the profile: seed %d → %d, events %+v → %+v", seed, p.Topology.Seed, events, p.Events)
	}
	rep, err := fed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exchanges) != exchanges {
		t.Fatalf("got %d exchange reports, want %d", len(rep.Exchanges), exchanges)
	}
	if len(rep.Signals) != victims {
		t.Fatalf("got %d signals, want %d (one per victim; more means the link re-gossiped a relay)",
			len(rep.Signals), victims)
	}
	for _, s := range rep.Signals {
		if s.Origin != "ixp0" || s.OriginTick != mitigate {
			t.Fatalf("signal %s: origin %s tick %d, want ixp0 tick %d", s.ID, s.Origin, s.OriginTick, mitigate)
		}
		if !s.Complete || len(s.Installs) != exchanges {
			t.Fatalf("signal %s: installed at %d/%d exchanges (rejections: %v)",
				s.ID, len(s.Installs), exchanges, s.Rejections)
		}
		for _, in := range s.Installs {
			want := delay
			if in.Exchange == s.Origin {
				want = 0
			}
			if in.PropagationTicks != want {
				t.Fatalf("signal %s at %s: propagation %d ticks, want %d",
					s.ID, in.Exchange, in.PropagationTicks, want)
			}
		}
	}
	for _, s := range rep.Signals {
		if s.MaxPropagationTicks != delay {
			t.Fatalf("signal %s: MaxPropagationTicks = %d, want %d", s.ID, s.MaxPropagationTicks, delay)
		}
	}
	// The drop takes effect at every exchange, not just the origin.
	for _, ex := range rep.Exchanges {
		s := ex.Victims[0].Samples[mitigate+delay+2]
		if s.RuleDroppedBps <= 0 {
			t.Fatalf("%s: no rule drops after federated install (sample %+v)", ex.Name, s)
		}
	}
	// Looking-glass provenance: a remote exchange shows the federated
	// install as relayed, the origin as local.
	glass := func(i int) string {
		x := fed.exchanges[i].IXP
		return x.Mitigations.GlassMitigations("", x.Clock())
	}
	if g := glass(9); !strings.Contains(g, "origin via ixp0") {
		t.Fatalf("exchange 9 looking glass lacks gossip provenance:\n%s", g)
	}
	if g := glass(0); !strings.Contains(g, "origin local") {
		t.Fatalf("exchange 0 looking glass lacks local provenance:\n%s", g)
	}
}

// TestDeterminism runs the same federation twice and requires
// byte-identical consolidated reports — the property the chaos CI job
// leans on, and the reason gossip delivery is ordered by
// (deliverTick, origin, sequence) instead of mutex arrival order.
func TestDeterminism(t *testing.T) {
	run := func() []byte {
		fed, err := Build(loadGossip(t), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fed.Run()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", a, b)
	}
}

// TestSingleExchangeParity is the bare-engine differential over the
// whole matrix: for every profile whose exchange runs the Stellar
// control plane, a one-exchange federation's series equal
// conformance.Run's byte for byte. The barrier events, the counting
// driver wrapper, the shared pool and the (targetless) gossip link must
// not perturb a single sample.
func TestSingleExchangeParity(t *testing.T) {
	profiles, err := conformance.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	var stellar atomic.Int32
	t.Cleanup(func() { t.Logf("%d of %d profiles run Stellar", stellar.Load(), len(profiles)) })
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			bare, err := conformance.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if bare.IXP.Mitigations == nil {
				t.Skip("no Stellar control plane to federate")
			}
			stellar.Add(1)
			fed, err := Build(p, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fed.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Exchanges[0]
			if len(got.Victims) != len(bare.Series) {
				t.Fatalf("federation has %d victims, bare engine %d", len(got.Victims), len(bare.Series))
			}
			for i, vs := range bare.Series {
				if got.Victims[i].Port != vs.Port {
					t.Fatalf("victim %d: port %q vs %q", i, got.Victims[i].Port, vs.Port)
				}
				a, err := json.Marshal(got.Victims[i].Samples)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(vs.Samples)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("victim %s series diverged:\nfederation: %s\nbare:       %s", vs.Port, a, b)
				}
			}
			if p.Name != "federation-gossip" {
				return
			}
			// The local mitigations still install and are reported,
			// with no gossip targets to relay to.
			if len(rep.Signals) != len(p.Victims) {
				t.Fatalf("got %d signals, want %d", len(rep.Signals), len(p.Victims))
			}
			for _, s := range rep.Signals {
				if !s.Complete || len(s.Installs) != 1 || len(s.Rejections) != 0 {
					t.Fatalf("signal %s: %+v", s.ID, s)
				}
			}
		})
	}
}

// TestRunSingleUse pins the engine-style single-use contract.
func TestRunSingleUse(t *testing.T) {
	fed, err := Build(loadGossip(t), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Run(); err == nil {
		t.Fatal("second Run succeeded, want single-use error")
	}
}

// TestConfigValidation covers Build's rejection paths.
func TestConfigValidation(t *testing.T) {
	rtbh, err := conformance.Load("baseline-rtbh")
	if err != nil {
		t.Fatal(err)
	}
	// The gossip link relays no withdrawal, so a withdraw would retract
	// the mitigation at exchange 0 alone.
	withdrawn := loadGossip(t)
	retract := withdrawn.Events[0]
	retract.Tick, retract.Action = 40, "withdraw"
	withdrawn.Events = append(withdrawn.Events, retract)
	if _, err := Build(withdrawn, 1, 0); err != nil {
		t.Fatalf("one exchange with a withdraw: %v", err)
	}
	for _, tc := range []struct {
		name     string
		p        *conformance.Profile
		n, delay int
	}{
		{"no exchanges", loadGossip(t), 0, 1},
		{"negative gossip delay", loadGossip(t), 2, -1},
		{"no mitigation controller", rtbh, 2, 1},
		{"withdraw at two exchanges", withdrawn, 2, 1},
	} {
		if _, err := Build(tc.p, tc.n, tc.delay); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
