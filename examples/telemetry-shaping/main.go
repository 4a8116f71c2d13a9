// telemetry-shaping demonstrates the feedback loop Advanced Blackholing
// enables and RTBH cannot (Section 3.1, "Telemetry"): the victim shapes
// the attack to a 200 Mbps telemetry sample instead of dropping it, then
// watches the shaped residue through the rule's counters to decide when
// the attack is over — no blind "probe by removing the blackhole".
//
// Run with: go run ./examples/telemetry-shaping
package main

import (
	"fmt"
	"log"
	"net/netip"

	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

func main() {
	members := member.MakePopulation(member.PopulationConfig{
		N: 40, HonoringFraction: 0.3, PortCapacityBps: 10e9, Seed: 3,
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
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		log.Fatal(err)
	}
	target := victim.Prefixes[0].Addr().Next()
	host := netip.PrefixFrom(target, 32)

	rng := stats.NewRand(11)
	peers := ixp.PeersOf(members[1:])
	// Attack runs from t=5 to t=40, then the booter subscription expires.
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers[:25], 2e9, 5, 40, rng)
	web := traffic.NewWebService(target, peers[:4], 3e8, rng)

	// Shape UDP/123 to 200 Mbps from the start: attack traffic becomes a
	// bounded telemetry sample. One declarative request enters the
	// lifecycle and returns the mitigation we can address directly —
	// the same installed state a BGP-community or portal signal would
	// produce.
	match := fabric.MatchAll()
	match.Proto = netpkt.ProtoUDP
	match.SrcPort = 123
	mit, err := x.RequestMitigation(mitctl.Spec{
		Requester:    victim.Name,
		Target:       host,
		Match:        match,
		Action:       fabric.ActionShape,
		ShapeRateBps: 200e6,
	})
	if err != nil {
		log.Fatal(err)
	}
	mitID := mit.ID

	var lastMatched int64
	quietTicks := 0
	withdrawn := false
	for tick := 0; tick < 60; tick++ {
		offers := web.AppendOffers(attack.AppendOffers(nil, tick, 1), tick, 1)
		x.ControlTick(tick, 1)
		if _, err := x.EgressTick(nil, fabric.TickOffers{victim.Name: offers}, 1, nil); err != nil {
			log.Fatal(err)
		}

		// Telemetry: the controller's per-mitigation counter roll-up
		// (Section 3.1) — live while installed, final after removal.
		cs, err := x.Mitigations.Usage(mitID)
		if err != nil {
			continue // not requested yet
		}
		deltaMbps := float64(cs.MatchedBytes-lastMatched) * 8 / 1e6
		lastMatched = cs.MatchedBytes
		if tick%5 == 0 {
			fmt.Printf("t=%2d attack-match %7.0f Mbps | sampled-through %6.2f GB | dropped %6.2f GB\n",
				tick, deltaMbps, float64(cs.ShapedResidue)/1e9, float64(cs.DroppedBytes)/1e9)
		}

		// Feedback decision: after 10 quiet seconds, the attack is over —
		// withdraw the rule without ever exposing the port to a live attack.
		if deltaMbps < 1 {
			quietTicks++
		} else {
			quietTicks = 0
		}
		if quietTicks >= 10 && !withdrawn {
			fmt.Printf("t=%2d telemetry shows the attack ended; withdrawing the mitigation\n", tick)
			if err := x.WithdrawMitigation(mitID, victim.Name); err != nil {
				log.Fatal(err)
			}
			withdrawn = true
		}
	}
	if !withdrawn {
		log.Fatal("telemetry loop never detected the attack end")
	}
	if m, ok := x.Mitigations.Get(mitID); ok {
		fmt.Printf("final lifecycle state: %s\n", m.State)
	}
	fmt.Println("done: rule removed based on telemetry, not guesswork")
}
