package stellar_test

// Ablations of the paper's design choices: filter placement, change-queue
// rate, ADD-PATH on the controller feed, and the signaling transport.
// Each reports its comparison as custom units next to ns/op. Timing of
// the system itself is the job of BENCHMARK.json + benchmark/ (see
// benchmark/README.md); nothing here is a regression bar.

import (
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/experiments"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// BenchmarkAblationEgressVsIngress compares the paper's egress filtering
// placement against ingress placement on a capacity-constrained small
// IXP: with egress filtering the attack crosses the platform core before
// dying, so a small core congests; ingress filtering (modeled as
// dropping at the source ports, i.e. before the core) does not. Metric:
// benign traffic delivered under each placement.
func BenchmarkAblationEgressVsIngress(b *testing.B) {
	target := netip.MustParseAddr("100.64.0.10")
	rng := stats.NewRand(1)
	peers := traffic.MakePeers(20)
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 8e9, 0, 1<<30, rng)
	attack.RampTicks = 0
	web := traffic.NewWebService(target, peers[:4], 4e8, rng)

	run := func(ingress bool) float64 {
		fab := fabric.New()
		fab.PlatformCapacityBps = 2e9 // small IXP: core is the bottleneck
		mac := netpkt.MustParseMAC("02:00:00:00:00:99")
		port := fabric.NewPort("victim", mac, 1e9)
		m := fabric.MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = 123
		_ = port.InstallRule(&fabric.Rule{ID: "drop", Match: m, Action: fabric.ActionDrop})
		_ = fab.AddPort(port)

		offers := append(attack.Offers(10, 1), web.Offers(10, 1)...)
		if ingress {
			// Ingress placement: matching traffic never reaches the core.
			var kept []fabric.Offer
			for _, o := range offers {
				if !(o.Flow.Proto == netpkt.ProtoUDP && o.Flow.SrcPort == 123) {
					kept = append(kept, o)
				}
			}
			offers = kept
		}
		st, err := fab.Tick(nil, fabric.TickOffers{"victim": offers}, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		return st.TotalDeliveredBytes() * 8
	}

	var egress, ingress float64
	for i := 0; i < b.N; i++ {
		egress = run(false)
		ingress = run(true)
	}
	b.ReportMetric(egress/1e6, "egress-delivered-Mbps")
	b.ReportMetric(ingress/1e6, "ingress-delivered-Mbps")
}

// BenchmarkAblationQueueRate sweeps the change queue's dequeue limit and
// reports the p95 signal-to-config delay — the trade between switch CPU
// protection and mitigation reaction time.
func BenchmarkAblationQueueRate(b *testing.B) {
	cfg := experiments.DefaultFig10bConfig()
	cfg.DurationSec = 1800
	cfg.Rates = []float64{1, 2, 4.33, 8, 16}
	var r experiments.Fig10bResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10b(cfg)
	}
	for _, c := range r.Curves {
		b.ReportMetric(stats.Percentile(c.Waits, 95), fmt.Sprintf("p95s-at-%gps", c.Rate))
	}
}

// BenchmarkAblationAddPath measures the correctness cost of disabling
// ADD-PATH on the controller feed: with best-path-only delivery, a
// second member's blackholing rule for a shared prefix is lost. Metric:
// rules installed with and without ADD-PATH semantics.
func BenchmarkAblationAddPath(b *testing.B) {
	run := func(addPath bool) int {
		members := member.MakePopulation(member.PopulationConfig{N: 4, PortCapacityBps: 1e9, Seed: 2})
		// Two members share a delegated prefix.
		shared := netip.MustParsePrefix("100.99.0.0/24")
		members[0].Prefixes = append(members[0].Prefixes, shared)
		members[1].Prefixes = append(members[1].Prefixes, shared)
		x, err := ixp.Build(ixp.Config{
			ASN: 6695, BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
			Members: members, EnableStellar: true, QueueRate: 1000, QueueBurst: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		host := netip.MustParsePrefix("100.99.0.7/32")
		if err := x.Announce(members[0].Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
			b.Fatal(err)
		}
		if addPath {
			// Full feed: the second member's rule also arrives.
			if err := x.Announce(members[1].Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(53)}); err != nil {
				b.Fatal(err)
			}
		} else {
			// Best-path-only feed: the RS would suppress the non-best
			// announcement; the second rule never reaches the controller.
		}
		x.Mitigations.Process(x.Clock() + 10)
		return x.Mitigations.AppliedChanges()
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(with), "rules-with-addpath")
	b.ReportMetric(float64(without), "rules-without-addpath")
}

// BenchmarkAblationSignaling compares the two signaling transports of
// Section 4.2.1 end to end: in-band BGP extended communities (full wire
// marshal/unmarshal through a session pair) versus a direct API call
// (controller event injection). Metric: signals per second.
func BenchmarkAblationSignaling(b *testing.B) {
	prefix := netip.MustParsePrefix("100.10.10.10/32")
	spec := core.DropUDPSrcPort(123)
	ec, err := spec.Encode()
	if err != nil {
		b.Fatal(err)
	}
	attrs := bgp.PathAttrs{
		Origin:         bgp.OriginIGP,
		ASPath:         []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
		NextHop:        netip.MustParseAddr("80.81.192.10"),
		ExtCommunities: []bgp.ExtCommunity{ec},
	}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.PathPrefix{{Prefix: prefix}}}

	b.Run("bgp-extended-community", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire, err := bgp.Marshal(u, nil)
			if err != nil {
				b.Fatal(err)
			}
			msg, _, err := bgp.Unmarshal(wire, nil)
			if err != nil {
				b.Fatal(err)
			}
			got := msg.(*bgp.Update)
			if specs := core.SignalsFrom(&got.Attrs); len(specs) != 1 {
				b.Fatal("signal lost")
			}
		}
	})
	b.Run("direct-api", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if specs := core.SignalsFrom(&u.Attrs); len(specs) != 1 {
				b.Fatal("signal lost")
			}
		}
	})
}
