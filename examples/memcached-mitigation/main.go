// memcached-mitigation replays the paper's motivating incident (Section
// 2.3, Figure 2c): the 2018-04-29 memcached amplification attack against
// a web service, where RTBH would have blackholed the legitimate HTTPS
// traffic along with the attack. It then applies the fix the paper
// argues for — a custom portal rule dropping only UDP source port 11211
// — and shows the port mix recovering.
//
// Run with: go run ./examples/memcached-mitigation
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"

	"stellar/internal/experiments"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

func main() {
	// Part 1: the measurement view — regenerate Figure 2(c)'s port-share
	// series from the synthetic incident workload.
	if err := experiments.Run("fig2c", os.Stdout, experiments.Options{}); err != nil {
		log.Fatal(err)
	}

	// Part 2: the same incident on the emulated IXP, mitigated with a
	// customer-portal rule referenced from BGP (SelCustom signaling).
	members := member.MakePopulation(member.PopulationConfig{
		N: 45, HonoringFraction: 0.3, PortCapacityBps: 10e9, Seed: 5,
	})
	victim := members[0]
	victim.PortCapacityBps = 10e9 // large port; the attack is 40 Gbps
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

	// Registered once in the self-service portal: "drop memcached".
	tmpl := fabric.MatchAll()
	tmpl.Proto = netpkt.ProtoUDP
	tmpl.SrcPort = 11211
	ruleID := x.Mitigations.Portal().Define(victim.Name, tmpl, fabric.ActionDrop, 0)
	fmt.Printf("\nportal: registered custom rule #%d for %s (drop UDP src 11211)\n\n", ruleID, victim.Name)

	rng := stats.NewRand(9)
	peers := ixp.PeersOf(members[1:])
	web := traffic.NewWebService(target, peers[:8], 2e9, rng)
	attack := traffic.NewAttack(traffic.VectorMemcached, target, peers, 40e9, 3, 1<<30, rng)
	attack.RampTicks = 2

	report := func(tick int, label string) {
		offers := web.AppendOffers(attack.AppendOffers(nil, tick, 1), tick, 1)
		var memc, webB float64
		perClass := func(delivered []fabric.Delivery) {
			for _, d := range delivered {
				if f := d.Offer.Flow; f.Proto == netpkt.ProtoUDP && f.SrcPort == 11211 {
					memc += d.Bytes
				} else {
					webB += d.Bytes
				}
			}
		}
		x.ControlTick(tick, 1)
		reports, err := x.EgressTick(nil, fabric.TickOffers{victim.Name: offers}, 1,
			func(int, string) fabric.FlowVisitor { return perClass })
		if err != nil {
			log.Fatal(err)
		}
		r := reports[victim.Name]
		fmt.Printf("%-22s delivered: memcached %8.0f Mbps | web %6.0f Mbps | port congestion loss %6.0f Mbps\n",
			label, memc*8/1e6, webB*8/1e6, r.Result.CongestionDroppedBytes*8/1e6)
	}

	report(1, "before attack")
	report(6, "attack, no mitigation")

	// Activate the portal rule against the attacked /32: the rule
	// template compiles into a lifecycle-managed mitigation, exactly as
	// a SelCustom BGP signal referencing the same rule ID would.
	if _, err := x.Mitigations.RequestFromPortal(victim.Name, ruleID, host, 0, x.Clock()); err != nil {
		log.Fatal(err)
	}
	report(8, "attack, custom rule")
	report(9, "attack, custom rule")
}
