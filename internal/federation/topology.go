package federation

import (
	"fmt"
	"net/netip"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// TopologyConfig describes the synthetic multi-IXP deployment
// BuildSynthetic fabricates: a set of victims present at every
// exchange, a pool of cross-IXP peers whose announcements appear at
// every exchange, and per-exchange local peers. Zero values select the
// documented defaults.
type TopologyConfig struct {
	// Exchanges is the number of IXPs (default 2).
	Exchanges int
	// Victims is the number of shared victim members, each present —
	// and attacked — at every exchange (default 2).
	Victims int
	// SharedPeers is the number of cross-IXP peer members that join and
	// announce at every exchange (default 8).
	SharedPeers int
	// LocalPeers is the number of peers private to each exchange
	// (default 24).
	LocalPeers int
	// Seed drives every deterministic choice (default 7).
	Seed uint64
	// Ticks is the length of the shared clock in one-second ticks
	// (default 120).
	Ticks int
	// MitigateTick is when each victim requests a drop of the attack
	// vector at exchange 0 — the signal the gossip link then carries to
	// every other exchange. Negative disables mitigation; 0 selects the
	// default (30).
	MitigateTick int
	// GossipDelayTicks is the propagation delay (0 selects the default
	// of 1 tick).
	GossipDelayTicks int
}

// The synthetic topology's fixed parameters.
const (
	// honoringFraction is the fraction of members honoring RTBH, the
	// paper's observation.
	honoringFraction = 0.3
	// peerPortBps is a peer's port capacity; victimPortBps a victim's,
	// the paper's monitored member port.
	peerPortBps   = 1e10
	victimPortBps = 1e9
	// attackRateBps is the NTP attack load per victim per exchange;
	// webRateBps the benign baseline.
	attackRateBps = 1e9
	webRateBps    = 2e8
	// attackStartTick is when the attack ramps up.
	attackStartTick = 10
)

func (tc TopologyConfig) withDefaults() TopologyConfig {
	if tc.Exchanges <= 0 {
		tc.Exchanges = 2
	}
	if tc.Victims <= 0 {
		tc.Victims = 2
	}
	if tc.SharedPeers == 0 {
		tc.SharedPeers = 8
	}
	if tc.LocalPeers == 0 {
		tc.LocalPeers = 24
	}
	if tc.Seed == 0 {
		tc.Seed = 7
	}
	if tc.Ticks == 0 {
		tc.Ticks = 120
	}
	if tc.MitigateTick == 0 {
		tc.MitigateTick = 30
	}
	if tc.GossipDelayTicks == 0 {
		tc.GossipDelayTicks = 1
	}
	return tc
}

// blackholeNextHop is the RTBH next hop every synthetic exchange uses
// (the paper's IXP announces 80.81.193.66).
var blackholeNextHop = netip.MustParseAddr("80.81.193.66")

// BuildSynthetic fabricates a ready-to-run federation from one global
// member population: victims and cross-IXP peers are the same member
// objects at every exchange (globally unique identities, so each
// exchange's IRR accepts their announcements), local peers are sliced
// per exchange. Each exchange carries an NTP attack plus a web baseline
// against every victim, and — unless disabled — exchange 0 requests a
// drop of the attack vector for every victim at MitigateTick, which the
// gossip link then propagates federation-wide.
func BuildSynthetic(tc TopologyConfig) (*Federation, error) {
	tc = tc.withDefaults()
	pop := makePopulation(tc)
	exchanges := make([]Exchange, tc.Exchanges)
	for e := range exchanges {
		ex, err := buildExchange(tc, e, pop)
		if err != nil {
			return nil, err
		}
		exchanges[e] = ex
	}
	return New(Config{Exchanges: exchanges, Ticks: tc.Ticks, GossipDelayTicks: tc.GossipDelayTicks})
}

// makePopulation fabricates the global member population: victims
// first, then the cross-IXP peers, then every exchange's local peers.
func makePopulation(tc TopologyConfig) []*member.Member {
	pop := member.MakePopulation(member.PopulationConfig{
		N:                tc.Victims + tc.SharedPeers + tc.Exchanges*tc.LocalPeers,
		HonoringFraction: honoringFraction,
		PortCapacityBps:  peerPortBps,
		Seed:             tc.Seed,
	})
	for v := 0; v < tc.Victims; v++ {
		pop[v].PortCapacityBps = victimPortBps
	}
	return pop
}

// buildExchange wires exchange e of the synthetic topology. Factored
// out of BuildSynthetic so the single-exchange parity test can build
// the identical exchange for a bare engine run.
func buildExchange(tc TopologyConfig, e int, pop []*member.Member) (Exchange, error) {
	victims := pop[:tc.Victims]
	shared := pop[tc.Victims : tc.Victims+tc.SharedPeers]
	lo := tc.Victims + tc.SharedPeers + e*tc.LocalPeers
	locals := pop[lo : lo+tc.LocalPeers]

	members := make([]*member.Member, 0, tc.Victims+tc.SharedPeers+tc.LocalPeers)
	members = append(members, victims...)
	members = append(members, shared...)
	members = append(members, locals...)

	x, err := ixp.Build(ixp.Config{
		Name:             fmt.Sprintf("ixp%d", e),
		ASN:              uint32(64496 + e),
		BlackholeNextHop: blackholeNextHop,
		Members:          members,
		EnableStellar:    true,
	})
	if err != nil {
		return Exchange{}, fmt.Errorf("federation: build exchange %d: %w", e, err)
	}
	// Cross-IXP announcements: victims and shared peers announce their
	// prefix at every exchange they are present at.
	for _, m := range members[:tc.Victims+tc.SharedPeers] {
		if err := x.Announce(m.Name, m.Prefixes[0], nil, nil); err != nil {
			return Exchange{}, fmt.Errorf("federation: exchange %d announce %s: %w", e, m.Name, err)
		}
	}

	peers := ixp.PeersOf(members[tc.Victims:])
	specs := make([]engine.VictimSpec, tc.Victims)
	srcs := make([][]engine.Source, tc.Victims)
	var events []engine.Event
	for v, vm := range victims {
		rng := stats.NewRand(tc.Seed + uint64(e)*100003 + uint64(v)*101 + 1)
		target := vm.Prefixes[0].Addr().Next()
		attack := traffic.NewAttack(traffic.VectorNTP, target, peers,
			attackRateBps, attackStartTick, tc.Ticks, rng)
		web := traffic.NewWebService(target, peers[:(len(peers)+3)/4], webRateBps, rng)
		specs[v] = engine.VictimSpec{Port: vm.Name}
		srcs[v] = []engine.Source{attack, web}
		if e == 0 && tc.MitigateTick >= 0 {
			spec := dropSpec(vm, target)
			events = append(events, engine.Event{
				Tick: tc.MitigateTick,
				Name: "mitigate " + vm.Name,
				Do: func() error {
					_, err := x.RequestMitigation(spec)
					return err
				},
			})
		}
	}
	return Exchange{
		Name:   x.Name(),
		IXP:    x,
		Driver: engine.NewSourcesDriver(specs, srcs),
		Events: events,
	}, nil
}

// dropSpec is the victim's mitigation request: drop the NTP attack
// vector (UDP source port 123) toward its attacked /32. It never
// expires.
func dropSpec(vm *member.Member, target netip.Addr) mitctl.Spec {
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = int32(traffic.VectorNTP.SrcPort)
	return mitctl.Spec{
		Requester: vm.Name,
		Target:    netip.PrefixFrom(target, 32),
		Match:     m,
		Action:    fabric.ActionDrop,
	}
}
