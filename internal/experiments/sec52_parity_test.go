package experiments

import (
	"math"
	"net/netip"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// legacySec52 is a frozen replica of the bespoke serial tick loop the
// experiment ran on before it moved to the scenario engine. It exists
// only as the parity oracle below; the production path is Sec52.
func legacySec52(seed uint64) (Sec52Result, error) {
	rng := stats.NewRand(seed)
	target := netip.MustParseAddr("100.10.10.10")
	victimMAC := netpkt.MustParseMAC("02:00:00:00:00:01")
	port := fabric.NewPort("victim", victimMAC, 1e9)

	dropNTP := fabric.MatchAll()
	dropNTP.Proto = netpkt.ProtoUDP
	dropNTP.SrcPort = 123
	if err := port.InstallRule(&fabric.Rule{ID: "drop-ntp", Match: dropNTP, Action: fabric.ActionDrop}); err != nil {
		return Sec52Result{}, err
	}
	shapeDNS := fabric.MatchAll()
	shapeDNS.Proto = netpkt.ProtoUDP
	shapeDNS.SrcPort = 53
	const dnsRate = 100e6
	if err := port.InstallRule(&fabric.Rule{ID: "shape-dns", Match: shapeDNS,
		Action: fabric.ActionShape, ShapeRateBps: dnsRate}); err != nil {
		return Sec52Result{}, err
	}

	peers := traffic.MakePeers(8)
	ntp := traffic.NewAttack(traffic.VectorNTP, target, peers, 5e9, 0, 1000, rng)
	ntp.RampTicks = 0
	dns := traffic.NewAttack(traffic.VectorDNS, target, peers, 4.5e9, 0, 1000, rng)
	dns.RampTicks = 0
	web := traffic.NewWebService(target, peers[:3], 5e8, rng)

	var res Sec52Result
	res.DNSShapeRateBps = dnsRate
	const ticks = 30
	for tick := 0; tick < ticks; tick++ {
		offers := append(ntp.Offers(tick, 1), dns.Offers(tick, 1)...)
		offers = append(offers, web.Offers(tick, 1)...)
		_, byFlow := egressByFlow(port, offers, 1)
		for flow, bytes := range byFlow {
			switch {
			case flow.Proto == netpkt.ProtoUDP && flow.SrcPort == 123:
				res.NTPDeliveredBps += bytes * 8 / ticks
			case flow.Proto == netpkt.ProtoUDP && flow.SrcPort == 53:
				res.DNSDeliveredBps += bytes * 8 / ticks
			default:
				res.BenignDeliveredBps += bytes * 8 / ticks
			}
		}
	}
	res.BenignOfferedBps = 5e8
	return res, nil
}

// TestSec52EngineMatchesLegacyLoop pins the engine-based Sec52 to the
// bespoke serial loop it replaced: per-class delivered rates must agree
// to float-summation noise (the two paths accumulate the same flow
// multiset in different orders, so bit-exact equality is not expected).
func TestSec52EngineMatchesLegacyLoop(t *testing.T) {
	for _, seed := range []uint64{9, 1, 42} {
		want, err := legacySec52(seed)
		if err != nil {
			t.Fatalf("seed %d: legacy: %v", seed, err)
		}
		got, err := Sec52(seed)
		if err != nil {
			t.Fatalf("seed %d: engine: %v", seed, err)
		}
		close := func(name string, a, b float64) {
			scale := math.Max(math.Abs(a), math.Abs(b))
			if scale == 0 {
				return
			}
			if math.Abs(a-b) > scale*1e-9 {
				t.Errorf("seed %d: %s diverged: engine %v, legacy %v", seed, name, a, b)
			}
		}
		close("NTP delivered", got.NTPDeliveredBps, want.NTPDeliveredBps)
		close("DNS delivered", got.DNSDeliveredBps, want.DNSDeliveredBps)
		close("benign delivered", got.BenignDeliveredBps, want.BenignDeliveredBps)
		if got.BenignOfferedBps != want.BenignOfferedBps || got.DNSShapeRateBps != want.DNSShapeRateBps {
			t.Errorf("seed %d: constants diverged: %+v vs %+v", seed, got, want)
		}
	}
}
