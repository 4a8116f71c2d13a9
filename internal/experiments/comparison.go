package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/mitigation"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// portPlane adapts a bare single-port fabric to engine.DataPlane: no
// IXP, no null routes — just the port's egress pass. The comparison's
// peer-edge FlowSpec filter and TSS scrubber act on offers before this
// port, which a conformance profile cannot express.
type portPlane struct {
	fab *fabric.Fabric
}

func (p portPlane) EgressTick(r fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]engine.PortReport, error) {
	st, err := p.fab.Tick(r, offers, dt, sink)
	if err != nil {
		return nil, err
	}
	out := make(map[string]engine.PortReport, len(st.PerPort))
	for name, res := range st.PerPort {
		out[name] = engine.PortReport{OfferedBytes: res.PresentedBytes, Result: res}
	}
	return out, nil
}

// replaySource feeds precomputed per-tick offers into the engine — the
// bridge for experiments whose workload (and its RNG draw order) was
// fixed up front, before the run.
type replaySource struct {
	ticks [][]fabric.Offer
}

// Offers implements engine.Source.
func (r *replaySource) Offers(tick int, _ float64) []fabric.Offer {
	if tick < 0 || tick >= len(r.ticks) {
		return nil
	}
	return r.ticks[tick]
}

// AppendOffers implements engine.OfferAppender.
func (r *replaySource) AppendOffers(dst []fabric.Offer, tick int, _ float64) []fabric.Offer {
	if tick < 0 || tick >= len(r.ticks) {
		return dst
	}
	return append(dst, r.ticks[tick]...)
}

// CompareConfig parameterizes the quantitative five-way comparison that
// backs Table 1's qualitative claims: the same amplification attack and
// benign workload under each mitigation technique's behavioural model.
type CompareConfig struct {
	Seed uint64
	// AttackRateBps and WebRateBps set the workload (default: 3 Gbps NTP
	// reflection vs 400 Mbps web into a 1 Gbps port).
	AttackRateBps float64
	WebRateBps    float64
	PortBps       float64
	// HonoringFraction applies to RTBH peers and Flowspec acceptance
	// alike (the shared cooperation bottleneck).
	HonoringFraction float64
	Peers            int
	Ticks            int
}

// DefaultCompareConfig mirrors the paper's operating point.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{
		Seed: 23, AttackRateBps: 3e9, WebRateBps: 4e8, PortBps: 1e9,
		HonoringFraction: 0.30, Peers: 40, Ticks: 30,
	}
}

// CompareRow is one technique's measured outcome.
type CompareRow struct {
	Technique mitigation.Technique
	// BenignDeliveredFrac is the fraction of benign traffic surviving.
	BenignDeliveredFrac float64
	// AttackResidualFrac is the fraction of attack traffic still hitting
	// the victim (for ACL: still consuming the member port).
	AttackResidualFrac float64
	// PortCongested reports whether the member port stayed saturated.
	PortCongested bool
	// CostPerHour is the recurring fee (only TSS bills per byte).
	CostPerHour float64
}

// CompareResult is the full comparison.
type CompareResult struct {
	Cfg  CompareConfig
	Rows []CompareRow
}

// CompareMitigations runs the same workload under no mitigation, RTBH,
// ACL filters, Flowspec, TSS and Advanced Blackholing, quantifying
// Table 1's qualitative matrix on one concrete attack.
func CompareMitigations(cfg CompareConfig) CompareResult {
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

	// honoring marks which peers cooperate (RTBH honoring / Flowspec
	// acceptance) — the same set for a fair comparison.
	honoringRng := stats.NewRand(cfg.Seed + 99)
	honors := make(map[netpkt.MAC]bool)
	for _, p := range traffic.MakePeers(cfg.Peers) {
		honors[p.MAC] = honoringRng.Float64() < cfg.HonoringFraction
	}

	// runPort pushes the per-tick offers through a fresh victim port on
	// the scenario engine and accumulates benign/attack delivery. The
	// pre-filter models peer-edge behaviour (RTBH null routes, Flowspec
	// rules), so it applies before the fabric: the post-filter loads are
	// precomputed and replayed into the engine, and the victim's flow
	// monitor provides the per-class delivery accounting.
	runPort := func(rules []*fabric.Rule, preFilter func(fabric.Offer) bool, dropBenignAtSource bool) (benign, attackRes float64, congested bool) {
		loads := makeLoads()
		perTick := &replaySource{ticks: make([][]fabric.Offer, len(loads))}
		var benignOff, attackOff float64
		for t, l := range loads {
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
			perTick.ticks[t] = offers
		}

		port := fabric.NewPort("victim", netpkt.MustParseMAC("02:00:00:00:00:01"), cfg.PortBps)
		for _, r := range rules {
			if err := port.InstallRule(r); err != nil {
				panic(err)
			}
		}
		fab := fabric.New()
		if err := fab.AddPort(port); err != nil {
			panic(err)
		}
		mon := flowmon.NewCollector()
		series, err := engine.New(engine.Config{
			Driver: engine.NewSourcesDriver(
				[]engine.VictimSpec{{Port: "victim", Monitor: mon}},
				[][]engine.Source{{perTick}}),
			DataPlane: portPlane{fab},
			Ticks:     len(loads),
			Dt:        1,
		}).Run()
		if err != nil {
			panic(err)
		}
		for _, s := range series[0].Samples {
			if s.CongestionDroppedBps > 0 {
				congested = true
			}
		}
		var benignDel, attackDel float64
		for _, bin := range mon.Bins() {
			atk := mon.SrcPortBytes(bin, 123)
			attackDel += atk
			benignDel += mon.TotalBytes(bin) - atk
		}
		return benignDel / benignOff, attackDel / attackOff, congested
	}

	// --- No mitigation baseline (implicit row, used for sanity only).

	// --- RTBH: honoring peers null-route the whole /32 — their benign
	// traffic dies too (collateral damage); non-honoring attack remains.
	rtbhFilter := func(o fabric.Offer) bool { return honors[o.Flow.SrcMAC] && o.Flow.Dst == target }
	b, a, c := runPort(nil, rtbhFilter, true)
	res.Rows = append(res.Rows, CompareRow{
		Technique: mitigation.RTBH, BenignDeliveredFrac: b, AttackResidualFrac: a, PortCongested: c,
	})

	// --- ACL at the victim's own border: perfect filtering, but behind
	// the member port — the port still carries and congests on the full
	// attack (Section 1.1's structural weakness). The border then
	// discards every attack byte the port delivered, while benign traffic
	// that survived congestion passes untouched.
	aclPortBenign, _, aclCongested := runPort(nil, nil, false)
	res.Rows = append(res.Rows, CompareRow{
		Technique:           mitigation.ACL,
		BenignDeliveredFrac: aclPortBenign, // congestion already took its toll
		AttackResidualFrac:  0,             // ACL removes what the port let through
		PortCongested:       aclCongested,
	})

	// --- Flowspec: accepting peers filter NTP at their edge; benign
	// traffic untouched. Refusing peers send everything.
	fsFilter := func(o fabric.Offer) bool {
		peer := &mitigation.FlowspecPeer{Accepts: honors[o.Flow.SrcMAC], Rules: []fabric.Match{ntpMatch}}
		return peer.FiltersFlow(o.Flow)
	}
	b, a, c = runPort(nil, fsFilter, false)
	res.Rows = append(res.Rows, CompareRow{
		Technique: mitigation.Flowspec, BenignDeliveredFrac: b, AttackResidualFrac: a, PortCongested: c,
	})

	// --- TSS: everything detours through the scrubbing center.
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

	// --- Advanced Blackholing: the drop rule on the victim's egress
	// port, no cooperation needed.
	b, a, c = runPort([]*fabric.Rule{{ID: "advbh", Match: ntpMatch, Action: fabric.ActionDrop}}, nil, false)
	res.Rows = append(res.Rows, CompareRow{
		Technique: mitigation.AdvancedBlackholing, BenignDeliveredFrac: b, AttackResidualFrac: a, PortCongested: c,
	})
	return res
}

// Format renders the comparison.
func (r CompareResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Quantitative Table-1 check: %.0f Mbps NTP attack + %.0f Mbps web into a %.0f Mbps port (honoring %.0f%%)\n",
		r.Cfg.AttackRateBps/1e6, r.Cfg.WebRateBps/1e6, r.Cfg.PortBps/1e6, r.Cfg.HonoringFraction*100)
	header := []string{"technique", "benign delivered", "attack residual", "port congested", "cost/h"}
	var rows [][]string
	for _, row := range r.Rows {
		cost := "-"
		if row.CostPerHour > 0 {
			cost = fmt.Sprintf("$%.0f", row.CostPerHour)
		}
		rows = append(rows, []string{
			row.Technique.String(),
			fmt.Sprintf("%5.1f%%", row.BenignDeliveredFrac*100),
			fmt.Sprintf("%5.1f%%", row.AttackResidualFrac*100),
			fmt.Sprintf("%v", row.PortCongested),
			cost,
		})
	}
	b.WriteString(FormatTable(header, rows))
	return b.String()
}

// CombinedTSSResult quantifies the Section 6 discussion: Advanced
// Blackholing as a pre-filter drastically reduces scrubbing cost
// without losing efficacy.
type CombinedTSSResult struct {
	TSSAloneCostPerHour  float64
	CombinedCostPerHour  float64
	TSSAloneBenignFrac   float64
	CombinedBenignFrac   float64
	SavingsFrac          float64
	SampleToScrubberMbps float64 // shaped telemetry feed to the scrubber
}

// CombinedTSS runs the same attack through (a) a scrubbing service alone
// and (b) Stellar dropping the known pattern with a 50 Mbps shaped
// sample forwarded to the scrubber for signature extraction.
func CombinedTSS(cfg CompareConfig) CombinedTSSResult {
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
	// Stellar shapes the known pattern to a small sample; the sample is
	// what reaches the scrubber.
	if err := port.InstallRule(&fabric.Rule{ID: "sample", Match: ntpMatch,
		Action: fabric.ActionShape, ShapeRateBps: sampleRateBps}); err != nil {
		panic(err)
	}

	// The original loop drew from the stateful attack source twice per
	// tick — once to size the full-detour scrub, once for the port load.
	// Precompute both draws in that exact order so the engine run
	// replays the identical workload.
	atkSized := make([]float64, cfg.Ticks)
	webSized := make([]float64, cfg.Ticks)
	portLoads := &replaySource{ticks: make([][]fabric.Offer, cfg.Ticks)}
	for t := 0; t < cfg.Ticks; t++ {
		for _, o := range attack.Offers(t, 1) {
			atkSized[t] += o.Bytes
		}
		webOffers := web.Offers(t, 1)
		for _, o := range webOffers {
			webSized[t] += o.Bytes
		}
		portLoads.ticks[t] = append(attack.Offers(t, 1), webOffers...)
	}

	// (a) TSS alone: the whole load detours to the scrubber.
	var aloneBenign, aloneBenignOff float64
	for t := 0; t < cfg.Ticks; t++ {
		r := scrubAll.Scrub(atkSized[t], webSized[t], 1)
		aloneBenign += r.CleanBenignBytes
		aloneBenignOff += webSized[t]
	}

	// (b) Combined: Stellar's shaping leaves only the sample of the
	// attack; benign traffic flows directly, only the sample is
	// scrubbed (for telemetry/signatures). The port run goes through
	// the scenario engine; the victim monitor's per-bin accounting
	// separates the sample from the benign traffic.
	fab := fabric.New()
	if err := fab.AddPort(port); err != nil {
		panic(err)
	}
	mon := flowmon.NewCollector()
	if _, err := engine.New(engine.Config{
		Driver: engine.NewSourcesDriver(
			[]engine.VictimSpec{{Port: "victim", Monitor: mon}},
			[][]engine.Source{{portLoads}}),
		DataPlane: portPlane{fab},
		Ticks:     cfg.Ticks,
		Dt:        1,
	}).Run(); err != nil {
		panic(err)
	}
	var combBenign, combBenignOff, sampleBytes float64
	for t := 0; t < cfg.Ticks; t++ {
		sampled := mon.SrcPortBytes(t, 123)
		combBenign += mon.TotalBytes(t) - sampled
		sampleBytes += sampled
		scrubSample.Scrub(sampled, 0, 1)
		combBenignOff += webSized[t]
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

// Format renders the combined-deployment economics.
func (r CombinedTSSResult) Format() string {
	var b strings.Builder
	b.WriteString("Section 6: combining Advanced Blackholing with traffic scrubbing\n")
	header := []string{"deployment", "benign delivered", "scrubbing cost/h"}
	rows := [][]string{
		{"TSS alone (full detour)", fmt.Sprintf("%5.1f%%", r.TSSAloneBenignFrac*100),
			fmt.Sprintf("$%.2f", r.TSSAloneCostPerHour)},
		{"Stellar pre-filter + TSS sample", fmt.Sprintf("%5.1f%%", r.CombinedBenignFrac*100),
			fmt.Sprintf("$%.2f", r.CombinedCostPerHour)},
	}
	b.WriteString(FormatTable(header, rows))
	fmt.Fprintf(&b, "\nscrubbing cost reduced by %.1f%%; scrubber still receives a %.0f Mbps attack sample for signature extraction\n",
		r.SavingsFrac*100, r.SampleToScrubberMbps)
	return b.String()
}
