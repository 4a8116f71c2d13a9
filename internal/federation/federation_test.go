package federation

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stellar/internal/engine"
)

// TestSignalPropagation is the acceptance bar of the subsystem: a
// 10-exchange federation with shared victims completes with a single
// consolidated report, and a mitigation spec originating at exchange 0
// is installed at all 10 exchanges within the configured gossip delay.
func TestSignalPropagation(t *testing.T) {
	const (
		exchanges = 10
		victims   = 2
		mitigate  = 12
		delay     = 3
	)
	fed, err := BuildSynthetic(TopologyConfig{
		Exchanges:        exchanges,
		Victims:          victims,
		SharedPeers:      4,
		LocalPeers:       8,
		Ticks:            40,
		MitigateTick:     mitigate,
		GossipDelayTicks: delay,
		Seed:             21,
	})
	if err != nil {
		t.Fatal(err)
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
		x := fed.cfg.exchanges[i].IXP
		return x.Mitigations.GlassMitigations("", x.Clock())
	}
	if g := glass(9); !strings.Contains(g, "origin via ixp0") {
		t.Fatalf("exchange 9 looking glass lacks gossip provenance:\n%s", g)
	}
	if g := glass(0); !strings.Contains(g, "origin local") {
		t.Fatalf("exchange 0 looking glass lacks local provenance:\n%s", g)
	}
}

// TestDeterminism runs the same seeded federation twice and requires
// byte-identical consolidated reports — the property the chaos CI job
// leans on, and the reason gossip delivery is ordered by
// (deliverTick, origin, sequence) instead of mutex arrival order.
func TestDeterminism(t *testing.T) {
	run := func() []byte {
		fed, err := BuildSynthetic(TopologyConfig{
			Exchanges:        4,
			Victims:          2,
			SharedPeers:      4,
			LocalPeers:       10,
			Ticks:            50,
			GossipDelayTicks: 2,
			Seed:             33,
		})
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

// TestSingleExchangeParity pins a one-exchange federation to a bare
// engine run over the identical exchange: the barrier events, the counting
// driver wrapper, the shared pool and the (targetless) gossip link must
// not perturb a single sample byte.
func TestSingleExchangeParity(t *testing.T) {
	tc := TopologyConfig{
		Exchanges:   1,
		Victims:     2,
		SharedPeers: 4,
		LocalPeers:  12,
		Ticks:       60,
		Seed:        9,
	}.withDefaults()

	fed, err := BuildSynthetic(tc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Run()
	if err != nil {
		t.Fatal(err)
	}

	ex, err := buildExchange(tc, 0, makePopulation(tc))
	if err != nil {
		t.Fatal(err)
	}
	series, err := engine.New(engine.Config{
		Driver:       ex.Driver,
		Control:      ex.IXP,
		DataPlane:    ex.IXP,
		Events:       ex.Events,
		Ticks:        tc.Ticks,
		Dt:           tickSec,
		MemberFilter: ex.IXP.MemberFilter(),
	}).Run()
	if err != nil {
		t.Fatal(err)
	}

	got := rep.Exchanges[0]
	if len(got.Victims) != len(series) {
		t.Fatalf("federation has %d victims, bare engine %d", len(got.Victims), len(series))
	}
	for i, vs := range series {
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
	// The local mitigation still installed and was reported, with no
	// gossip targets to relay to.
	if len(rep.Signals) != tc.Victims {
		t.Fatalf("got %d signals, want %d", len(rep.Signals), tc.Victims)
	}
	for _, s := range rep.Signals {
		if !s.Complete || len(s.Installs) != 1 || len(s.Rejections) != 0 {
			t.Fatalf("signal %s: %+v", s.ID, s)
		}
	}
}

// TestRunSingleUse pins the engine-style single-use contract.
func TestRunSingleUse(t *testing.T) {
	fed, err := BuildSynthetic(TopologyConfig{
		Exchanges: 2, Victims: 1, SharedPeers: 2, LocalPeers: 4, Ticks: 5, MitigateTick: -1, Seed: 3,
	})
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

// TestConfigValidation covers New's rejection paths.
func TestConfigValidation(t *testing.T) {
	if _, err := newFederation(config{ticks: 10}); err == nil {
		t.Fatal("empty federation accepted")
	}
	fed, err := BuildSynthetic(TopologyConfig{
		Exchanges: 1, Victims: 1, SharedPeers: 2, LocalPeers: 4, Ticks: 5, MitigateTick: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := fed.cfg.exchanges[0]
	if _, err := newFederation(config{exchanges: []exchange{ex}}); err == nil {
		t.Fatal("zero ticks accepted")
	}
	if _, err := newFederation(config{exchanges: []exchange{ex, ex}, ticks: 5}); err == nil {
		t.Fatal("duplicate exchange names accepted")
	}
	if _, err := newFederation(config{exchanges: []exchange{ex}, ticks: 5, gossipDelayTicks: -1}); err == nil {
		t.Fatal("negative gossip delay accepted")
	}
	if _, err := newFederation(config{exchanges: []exchange{{Name: "a", IXP: ex.IXP}}, ticks: 5}); err == nil {
		t.Fatal("driverless exchange accepted")
	}
}
