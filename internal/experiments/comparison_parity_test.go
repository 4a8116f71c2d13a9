package experiments

import (
	"math"
	"net/netip"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/mitigation"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// egressByFlow is one egress tick with the per-flow deliveries summed
// into a map — the shape the frozen replicas below were written against.
// The visitor runs in the forward-queue order the map used to be filled in.
func egressByFlow(port *fabric.Port, offers []fabric.Offer, dt float64) (fabric.TickResult, map[netpkt.FlowKey]float64) {
	byFlow := make(map[netpkt.FlowKey]float64, len(offers))
	res := port.Egress(offers, dt, func(ds []fabric.Delivery) {
		for _, d := range ds {
			byFlow[*d.Offer.Flow] += d.Bytes
		}
	})
	return res, byFlow
}

// legacyCompareMitigations is a frozen replica of the bespoke serial
// port loops the comparison matrix ran on before it moved to the
// scenario engine. It exists only as the parity oracle below; the
// production path is CompareMitigations.
func legacyCompareMitigations(cfg CompareConfig) CompareResult {
	target := netip.MustParseAddr("100.10.10.10")
	res := CompareResult{Cfg: cfg}

	ntpMatch := fabric.MatchAll()
	ntpMatch.Proto = netpkt.ProtoUDP
	ntpMatch.SrcPort = 123

	type tickLoads struct{ attack, web []fabric.Offer }
	makeLoads := func() []tickLoads {
		rng := stats.NewRand(cfg.Seed)
		peers := traffic.MakePeers(cfg.Peers)
		attack := traffic.NewAttack(traffic.VectorNTP, target, peers, cfg.AttackRateBps, 0, cfg.Ticks, rng)
		attack.RampTicks = 0
		web := traffic.NewWebService(target, peers[:5], cfg.WebRateBps, rng)
		loads := make([]tickLoads, cfg.Ticks)
		for t := 0; t < cfg.Ticks; t++ {
			loads[t] = tickLoads{attack: attack.Offers(t, 1), web: web.Offers(t, 1)}
		}
		return loads
	}

	honoringRng := stats.NewRand(cfg.Seed + 99)
	honors := make(map[netpkt.MAC]bool)
	for _, p := range traffic.MakePeers(cfg.Peers) {
		honors[p.MAC] = honoringRng.Float64() < cfg.HonoringFraction
	}

	runPort := func(rules []*fabric.Rule, preFilter func(fabric.Offer) bool, dropBenignAtSource bool) (benign, attackRes float64, congested bool) {
		port := fabric.NewPort("victim", netpkt.MustParseMAC("02:00:00:00:00:01"), cfg.PortBps)
		for _, r := range rules {
			if err := port.InstallRule(r); err != nil {
				panic(err)
			}
		}
		var benignDel, benignOff, attackDel, attackOff float64
		for _, l := range makeLoads() {
			var offers []fabric.Offer
			for _, o := range l.attack {
				attackOff += o.Bytes
				if preFilter != nil && preFilter(o) {
					continue
				}
				offers = append(offers, o)
			}
			for _, o := range l.web {
				benignOff += o.Bytes
				if dropBenignAtSource && preFilter != nil && preFilter(o) {
					continue
				}
				offers = append(offers, o)
			}
			out, byFlow := egressByFlow(port, offers, 1)
			if out.CongestionDroppedBytes > 0 {
				congested = true
			}
			for flow, bytes := range byFlow {
				if flow.Proto == netpkt.ProtoUDP && flow.SrcPort == 123 {
					attackDel += bytes
				} else {
					benignDel += bytes
				}
			}
		}
		return benignDel / benignOff, attackDel / attackOff, congested
	}

	rtbhFilter := func(o fabric.Offer) bool { return honors[o.Flow.SrcMAC] && o.Flow.Dst == target }
	b, a, c := runPort(nil, rtbhFilter, true)
	res.Rows = append(res.Rows, CompareRow{
		Technique: mitigation.RTBH, BenignDeliveredFrac: b, AttackResidualFrac: a, PortCongested: c,
	})

	aclPortBenign, _, aclCongested := runPort(nil, nil, false)
	res.Rows = append(res.Rows, CompareRow{
		Technique:           mitigation.ACL,
		BenignDeliveredFrac: aclPortBenign,
		AttackResidualFrac:  0,
		PortCongested:       aclCongested,
	})

	fsFilter := func(o fabric.Offer) bool {
		peer := &mitigation.FlowspecPeer{Accepts: honors[o.Flow.SrcMAC], Rules: []fabric.Match{ntpMatch}}
		return peer.FiltersFlow(o.Flow)
	}
	b, a, c = runPort(nil, fsFilter, false)
	res.Rows = append(res.Rows, CompareRow{
		Technique: mitigation.Flowspec, BenignDeliveredFrac: b, AttackResidualFrac: a, PortCongested: c,
	})

	scrubber := &mitigation.Scrubber{
		CapacityBps: 10e9, DetectionRate: 0.995, FalsePositiveRate: 0.005, CostPerGB: 1.5,
	}
	var tssBenign, tssAttack, tssBenignOff, tssAttackOff float64
	for _, l := range makeLoads() {
		var atk, web float64
		for _, o := range l.attack {
			atk += o.Bytes
		}
		for _, o := range l.web {
			web += o.Bytes
		}
		r := scrubber.Scrub(atk, web, 1)
		tssBenign += r.CleanBenignBytes
		tssAttack += r.LeakedAttackBytes
		tssBenignOff += web
		tssAttackOff += atk
	}
	res.Rows = append(res.Rows, CompareRow{
		Technique:           mitigation.TSS,
		BenignDeliveredFrac: tssBenign / tssBenignOff,
		AttackResidualFrac:  tssAttack / tssAttackOff,
		CostPerHour:         scrubber.TotalCost * 3600 / float64(cfg.Ticks),
	})

	b, a, c = runPort([]*fabric.Rule{{ID: "advbh", Match: ntpMatch, Action: fabric.ActionDrop}}, nil, false)
	res.Rows = append(res.Rows, CompareRow{
		Technique: mitigation.AdvancedBlackholing, BenignDeliveredFrac: b, AttackResidualFrac: a, PortCongested: c,
	})
	return res
}

// legacyCombinedTSS is the frozen pre-engine replica of CombinedTSS,
// including its double per-tick draw from the stateful attack source.
func legacyCombinedTSS(cfg CompareConfig) CombinedTSSResult {
	target := netip.MustParseAddr("100.10.10.10")
	rng := stats.NewRand(cfg.Seed)
	peers := traffic.MakePeers(cfg.Peers)
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers, cfg.AttackRateBps, 0, cfg.Ticks, rng)
	attack.RampTicks = 0
	web := traffic.NewWebService(target, peers[:5], cfg.WebRateBps, rng)

	scrubAll := &mitigation.Scrubber{CapacityBps: 10e9, DetectionRate: 0.995, FalsePositiveRate: 0.005, CostPerGB: 1.5}
	scrubSample := &mitigation.Scrubber{CapacityBps: 10e9, DetectionRate: 0.995, FalsePositiveRate: 0.005, CostPerGB: 1.5}

	const sampleRateBps = 50e6
	ntpMatch := fabric.MatchAll()
	ntpMatch.Proto = netpkt.ProtoUDP
	ntpMatch.SrcPort = 123
	port := fabric.NewPort("victim", netpkt.MustParseMAC("02:00:00:00:00:01"), cfg.PortBps)
	if err := port.InstallRule(&fabric.Rule{ID: "sample", Match: ntpMatch,
		Action: fabric.ActionShape, ShapeRateBps: sampleRateBps}); err != nil {
		panic(err)
	}

	var aloneBenign, aloneBenignOff, combBenign, combBenignOff, sampleBytes float64
	for t := 0; t < cfg.Ticks; t++ {
		var atk, webBytes float64
		for _, o := range attack.Offers(t, 1) {
			atk += o.Bytes
		}
		webOffers := web.Offers(t, 1)
		for _, o := range webOffers {
			webBytes += o.Bytes
		}

		r := scrubAll.Scrub(atk, webBytes, 1)
		aloneBenign += r.CleanBenignBytes
		aloneBenignOff += webBytes

		_, byFlow := egressByFlow(port, append(attack.Offers(t, 1), webOffers...), 1)
		var sampled float64
		for flow, bytes := range byFlow {
			if flow.Proto == netpkt.ProtoUDP && flow.SrcPort == 123 {
				sampled += bytes
			} else {
				combBenign += bytes
			}
		}
		sampleBytes += sampled
		scrubSample.Scrub(sampled, 0, 1)
		combBenignOff += webBytes
	}
	hours := float64(cfg.Ticks) / 3600
	res := CombinedTSSResult{
		TSSAloneCostPerHour:  scrubAll.TotalCost / hours,
		CombinedCostPerHour:  scrubSample.TotalCost / hours,
		TSSAloneBenignFrac:   aloneBenign / aloneBenignOff,
		CombinedBenignFrac:   combBenign / combBenignOff,
		SampleToScrubberMbps: sampleBytes * 8 / float64(cfg.Ticks) / 1e6,
	}
	if res.TSSAloneCostPerHour > 0 {
		res.SavingsFrac = 1 - res.CombinedCostPerHour/res.TSSAloneCostPerHour
	}
	return res
}

// parityClose asserts relative agreement to float-summation noise: the
// engine and legacy paths accumulate the same flow multiset in
// different orders, so bit-exact equality is not expected.
func parityClose(t *testing.T, seed uint64, name string, a, b float64) {
	t.Helper()
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return
	}
	if math.Abs(a-b) > scale*1e-9 {
		t.Errorf("seed %d: %s diverged: engine %v, legacy %v", seed, name, a, b)
	}
}

// TestCompareMitigationsEngineMatchesLegacyLoop pins the engine-based
// comparison matrix to the bespoke serial port loops it replaced.
func TestCompareMitigationsEngineMatchesLegacyLoop(t *testing.T) {
	for _, seed := range []uint64{9, 1, 42} {
		cfg := DefaultCompareConfig()
		cfg.Seed = seed
		want := legacyCompareMitigations(cfg)
		got := CompareMitigations(cfg)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			w, g := want.Rows[i], got.Rows[i]
			if g.Technique != w.Technique {
				t.Fatalf("seed %d row %d: technique %v, want %v", seed, i, g.Technique, w.Technique)
			}
			if g.PortCongested != w.PortCongested {
				t.Errorf("seed %d %v: congested %v, want %v", seed, g.Technique, g.PortCongested, w.PortCongested)
			}
			label := w.Technique.String()
			parityClose(t, seed, label+" benign delivered", g.BenignDeliveredFrac, w.BenignDeliveredFrac)
			parityClose(t, seed, label+" attack residual", g.AttackResidualFrac, w.AttackResidualFrac)
			parityClose(t, seed, label+" cost/h", g.CostPerHour, w.CostPerHour)
		}
	}
}

// TestCombinedTSSEngineMatchesLegacyLoop pins the engine-based combined
// deployment to the frozen serial replica, double RNG draw and all.
func TestCombinedTSSEngineMatchesLegacyLoop(t *testing.T) {
	for _, seed := range []uint64{9, 1, 42} {
		cfg := DefaultCompareConfig()
		cfg.Seed = seed
		want := legacyCombinedTSS(cfg)
		got := CombinedTSS(cfg)
		parityClose(t, seed, "TSS-alone cost/h", got.TSSAloneCostPerHour, want.TSSAloneCostPerHour)
		parityClose(t, seed, "combined cost/h", got.CombinedCostPerHour, want.CombinedCostPerHour)
		parityClose(t, seed, "TSS-alone benign", got.TSSAloneBenignFrac, want.TSSAloneBenignFrac)
		parityClose(t, seed, "combined benign", got.CombinedBenignFrac, want.CombinedBenignFrac)
		parityClose(t, seed, "savings", got.SavingsFrac, want.SavingsFrac)
		parityClose(t, seed, "sample Mbps", got.SampleToScrubberMbps, want.SampleToScrubberMbps)
	}
}
