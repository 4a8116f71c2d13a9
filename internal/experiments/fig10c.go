package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/flowmon"
	"stellar/internal/ixp"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// DefaultFig10cConfig mirrors the Section 5.3 experiment: the same
// booter attack as Figure 3(c) but ~60 peers, mitigated with Stellar.
func DefaultFig10cConfig() AttackRunConfig {
	return AttackRunConfig{
		Seed: 5, Members: 650, HonoringFraction: 0.30,
		AttackPeers: 60, AttackRateBps: 1e9,
		Ticks: 900, AttackStart: 100, AttackEnd: 800,
	}
}

// Fig10cResult is the Stellar attack time series plus headline metrics.
type Fig10cResult struct {
	Cfg     AttackRunConfig
	Samples []engine.Sample
	// ShapeTick is when the victim signaled IXP:2:123 with a 200 Mbps
	// shape; DropTick is when it escalated to dropping all UDP.
	ShapeTick, DropTick int
	// Phase means.
	PeakBps      float64
	ShapedBps    float64
	FinalBps     float64
	PeersPeak    float64
	PeersShaped  float64
	PeersFinal   float64
	ShapeLatency float64 // signal-to-config delay of the first change
	// TopPorts is the victim monitor's UDP source-port ranking across
	// the run; during the telemetry (shaping) phase the NTP signature
	// stays visible, which is Advanced Blackholing's point.
	TopPorts []flowmon.PortRank
}

// Fig10c reproduces Figure 10(c): the booter attack mitigated with
// Advanced Blackholing. 200 s into the attack the victim signals a
// 200 Mbps shape on UDP source port 123 (telemetry mode); the traffic
// drops to the shaping rate while the peer count stays constant. 200 s
// later it escalates to dropping all UDP, driving the attack to ~zero.
func Fig10c(cfg AttackRunConfig) (Fig10cResult, error) {
	x, members, err := buildAttackIXP(cfg, true)
	if err != nil {
		return Fig10cResult{}, err
	}
	victim := members[0]
	target := victim.Prefixes[0].Addr().Next()
	host := netip.PrefixFrom(target, 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		return Fig10cResult{}, err
	}

	rng := stats.NewRand(cfg.Seed + 1)
	attackPeers := ixp.PeersOf(members[1 : 1+cfg.AttackPeers])
	attack := traffic.NewAttack(traffic.VectorNTP, target, attackPeers,
		cfg.AttackRateBps, cfg.AttackStart, cfg.AttackEnd, rng)

	// Drive the engine directly: one victim, the escalating mitigation
	// signals as timed events.
	shapeTick := cfg.AttackStart + 200
	dropTick := shapeTick + 200
	series, err := engine.New(engine.Config{
		Driver: engine.NewSourcesDriver(
			[]engine.VictimSpec{{Port: victim.Name}},
			[][]engine.Source{{attack}},
		),
		Control:   x,
		DataPlane: x,
		Events: []engine.Event{
			{Tick: shapeTick, Name: "shape UDP/123 to 200 Mbps (IXP:2:123)",
				Do: func() error {
					return x.Announce(victim.Name, host, nil,
						[]core.RuleSpec{core.ShapeUDPSrcPort(123, 200e6)})
				}},
			{Tick: dropTick, Name: "drop all UDP",
				Do: func() error {
					return x.Announce(victim.Name, host, nil,
						[]core.RuleSpec{core.DropProto(netpkt.ProtoUDP)})
				}},
		},
		Ticks:        cfg.Ticks,
		Dt:           1,
		MemberFilter: x.MemberFilter(),
	}).Run()
	if err != nil {
		return Fig10cResult{}, err
	}
	samples := series[0].Samples
	res := Fig10cResult{
		Cfg: cfg, Samples: samples, ShapeTick: shapeTick, DropTick: dropTick,
		PeakBps:     ixp.MeanDeliveredBps(samples, cfg.AttackStart+30, shapeTick),
		ShapedBps:   ixp.MeanDeliveredBps(samples, shapeTick+20, dropTick),
		FinalBps:    ixp.MeanDeliveredBps(samples, dropTick+20, cfg.AttackEnd),
		PeersPeak:   ixp.MeanActivePeers(samples, cfg.AttackStart+30, shapeTick),
		PeersShaped: ixp.MeanActivePeers(samples, shapeTick+20, dropTick),
		PeersFinal:  ixp.MeanActivePeers(samples, dropTick+20, cfg.AttackEnd),
		TopPorts:    series[0].Monitor.TopSrcPorts(3),
	}
	if lats := x.Mitigations.Latencies(); len(lats) > 0 {
		res.ShapeLatency = lats[0]
	}
	return res, nil
}

// Format renders the time series and phase metrics.
func (r Fig10cResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 10(c): active DDoS attack mitigated with Stellar (Advanced Blackholing)\n")
	b.WriteString(formatAttackSeries(r.Samples, 50))
	fmt.Fprintf(&b, "\nattack steady state:       %.0f Mbps from %.0f peers\n", r.PeakBps/1e6, r.PeersPeak)
	fmt.Fprintf(&b, "shaped (t=%d, 200 Mbps):  %.0f Mbps from %.0f peers (telemetry preserved)\n",
		r.ShapeTick, r.ShapedBps/1e6, r.PeersShaped)
	fmt.Fprintf(&b, "dropped (t=%d, all UDP):  %.0f Mbps from %.0f peers\n",
		r.DropTick, r.FinalBps/1e6, r.PeersFinal)
	fmt.Fprintf(&b, "signal-to-configuration latency of first change: %.2f s\n", r.ShapeLatency)
	b.WriteString(formatTopPorts(r.TopPorts))
	return b.String()
}
