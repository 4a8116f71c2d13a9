// Quickstart: build an in-memory IXP, congest a member's port with an
// NTP amplification attack, and mitigate it with one declarative
// mitigation request — the end-to-end flow of Sections 3 and 5.3,
// executed by the engine's tick loop (attack and mitigation on one
// pipelined timeline).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
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

func main() {
	// 1. An IXP with 50 members; the victim has a 1 Gbps port.
	members := member.MakePopulation(member.PopulationConfig{
		N: 50, HonoringFraction: 0.3, PortCapacityBps: 10e9, Seed: 1,
	})
	victim := members[0]
	victim.PortCapacityBps = 1e9

	x, err := ixp.Build(ixp.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
		Members:          members,
		EnableStellar:    true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The victim announces its /24 through the route server.
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		log.Fatal(err)
	}
	target := victim.Prefixes[0].Addr().Next() // the web service's /32

	// 3. Workloads: 400 Mbps of legitimate web traffic plus a 3 Gbps NTP
	//    reflection attack from 30 peers.
	rng := stats.NewRand(7)
	peers := ixp.PeersOf(members[1:])
	web := traffic.NewWebService(target, peers[:5], 4e8, rng)
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers[:30], 3e9, 0, 1<<30, rng)
	attack.RampTicks = 0

	// 4. The run is one engine timeline: three congested ticks, then the
	//    victim declares "drop UDP source port 123 toward my /32" — one
	//    lifecycle-managed mitigation request, the API equivalent of the
	//    Advanced Blackholing BGP community.
	match := fabric.MatchAll()
	match.Proto = netpkt.ProtoUDP
	match.SrcPort = 123
	series, err := engine.New(engine.Config{
		Driver: engine.NewSourcesDriver(
			[]engine.VictimSpec{{Port: victim.Name}},
			[][]engine.Source{{attack, web}},
		),
		Control:   x,
		DataPlane: x,
		Events: []engine.Event{{
			Tick: 3, Name: "signal drop UDP/123",
			Do: func() error {
				_, err := x.RequestMitigation(mitctl.Spec{
					Requester: victim.Name,
					Target:    netip.PrefixFrom(target, 32),
					Match:     match,
					Action:    fabric.ActionDrop,
				})
				return err
			},
		}},
		Ticks: 7,
		Dt:    1,
	}).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Attack on; mitigation signaled at t=3 (applies with the one-tick delay):")
	for _, s := range series[0].Samples {
		fmt.Printf("  t=%2ds offered %6.0f Mbps | delivered %6.0f Mbps | dropped-by-rule %6.0f Mbps | congestion-lost %5.0f Mbps\n",
			s.Tick, s.OfferedBps/1e6, s.DeliveredBps/1e6,
			s.RuleDroppedBps/1e6, s.CongestionDroppedBps/1e6)
	}

	fmt.Printf("\nStellar applied %d configuration change(s).\n", x.Mitigations.AppliedChanges())

	// The mitigation is a first-class lifecycle object: the looking
	// glass lists it with its owner and cumulative effect.
	fmt.Print(x.Mitigations.GlassMitigations("", x.Clock()))
}
