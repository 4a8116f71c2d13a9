package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"stellar/internal/bgp"
	"stellar/internal/engine"
	"stellar/internal/flowmon"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// AttackRunConfig parameterizes the controlled booter experiments of
// Sections 2.4 (RTBH, Figure 3c) and 5.3 (Stellar, Figure 10c).
type AttackRunConfig struct {
	Seed uint64
	// Members is the route server population (>650 in the paper).
	Members int
	// HonoringFraction of members acting on RTBH (~0.3: almost 70%
	// do not, Section 2.4).
	HonoringFraction float64
	// AttackPeers is the number of members the booter's reflectors sit
	// behind (~40 in Fig 3c, ~60 in Fig 10c).
	AttackPeers int
	// AttackRateBps is the booter's peak (about 1 Gbps).
	AttackRateBps float64
	// Ticks is the experiment duration in seconds.
	Ticks int
	// AttackStart / AttackEnd bound the booter run.
	AttackStart, AttackEnd int
}

// DefaultFig3cConfig mirrors the Section 2.4 experiment.
func DefaultFig3cConfig() AttackRunConfig {
	return AttackRunConfig{
		Seed: 3, Members: 650, HonoringFraction: 0.30,
		AttackPeers: 40, AttackRateBps: 1e9,
		Ticks: 900, AttackStart: 100, AttackEnd: 700,
	}
}

// Fig3cResult is the RTBH attack time series plus its headline metrics.
type Fig3cResult struct {
	Cfg     AttackRunConfig
	Samples []engine.Sample
	// RTBHTick is when the /32 blackhole was signaled (280 s after the
	// attack started, as in the paper).
	RTBHTick int
	// PeakBps is the mean delivered rate at attack steady state before
	// RTBH; ResidualBps after RTBH.
	PeakBps     float64
	ResidualBps float64
	// PeersBefore / PeersAfter are mean active peer counts.
	PeersBefore float64
	PeersAfter  float64
	// TopPorts is the victim monitor's UDP source-port ranking across
	// the run — the Figure 3(a)-style evidence that the delivered attack
	// is NTP (port 123) reflection.
	TopPorts []flowmon.PortRank
}

// buildAttackIXP builds the experimental AS setting: a member
// population, the victim with a 10 Gbps port, and the IXP.
func buildAttackIXP(cfg AttackRunConfig, stellarOn bool) (*ixp.IXP, []*member.Member, error) {
	members := member.MakePopulation(member.PopulationConfig{
		N: cfg.Members, HonoringFraction: cfg.HonoringFraction,
		PortCapacityBps: 1e10, Seed: cfg.Seed,
	})
	x, err := ixp.Build(ixp.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
		Members:          members,
		EnableStellar:    stellarOn,
	})
	if err != nil {
		return nil, nil, err
	}
	return x, members, nil
}

// Fig3c reproduces Figure 3(c): a booter attack on a /32 the
// experimental AS operates, mitigated with classic RTBH. Because ~70% of
// the peers do not honor the blackhole, the attack traffic only drops to
// 600-800 Mbps and the peer count falls by only ~25%.
func Fig3c(cfg AttackRunConfig) (Fig3cResult, error) {
	x, members, err := buildAttackIXP(cfg, false)
	if err != nil {
		return Fig3cResult{}, err
	}
	victim := members[0]
	target := victim.Prefixes[0].Addr().Next()
	host := netip.PrefixFrom(target, 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		return Fig3cResult{}, err
	}

	rng := stats.NewRand(cfg.Seed + 1)
	attackPeers := ixp.PeersOf(members[1 : 1+cfg.AttackPeers])
	attack := traffic.NewAttack(traffic.VectorNTP, target, attackPeers,
		cfg.AttackRateBps, cfg.AttackStart, cfg.AttackEnd, rng)

	// Drive the engine directly: the attack source becomes a one-victim
	// driver, the RTBH signal a timed event, and the IXP supplies the
	// control and data planes.
	rtbhTick := cfg.AttackStart + 280
	series, err := engine.New(engine.Config{
		Driver: engine.NewSourcesDriver(
			[]engine.VictimSpec{{Port: victim.Name}},
			[][]engine.Source{{attack}},
		),
		Control:   x,
		DataPlane: x,
		Events: []engine.Event{{
			Tick: rtbhTick, Name: "signal RTBH /32",
			Do: func() error {
				return x.Announce(victim.Name, host,
					[]bgp.Community{bgp.CommunityBlackhole}, nil)
			},
		}},
		Ticks:        cfg.Ticks,
		Dt:           1,
		MemberFilter: x.MemberFilter(),
	}).Run()
	if err != nil {
		return Fig3cResult{}, err
	}
	samples := series[0].Samples
	res := Fig3cResult{
		Cfg: cfg, Samples: samples, RTBHTick: rtbhTick,
		PeakBps:     ixp.MeanDeliveredBps(samples, cfg.AttackStart+30, rtbhTick),
		ResidualBps: ixp.MeanDeliveredBps(samples, rtbhTick+20, cfg.AttackEnd),
		PeersBefore: ixp.MeanActivePeers(samples, cfg.AttackStart+30, rtbhTick),
		PeersAfter:  ixp.MeanActivePeers(samples, rtbhTick+20, cfg.AttackEnd),
		TopPorts:    series[0].Monitor.TopSrcPorts(3),
	}
	return res, nil
}

// Format renders the time series and headline metrics.
func (r Fig3cResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3(c): active DDoS attack exposing RTBH ineffectiveness\n")
	b.WriteString(formatAttackSeries(r.Samples, 50))
	fmt.Fprintf(&b, "\nattack steady state: %.0f Mbps from %.0f peers\n", r.PeakBps/1e6, r.PeersBefore)
	fmt.Fprintf(&b, "after RTBH (t=%d):   %.0f Mbps from %.0f peers (peer reduction %.0f%%)\n",
		r.RTBHTick, r.ResidualBps/1e6, r.PeersAfter,
		100*(1-r.PeersAfter/r.PeersBefore))
	b.WriteString(formatTopPorts(r.TopPorts))
	return b.String()
}

// formatTopPorts renders a monitor's UDP source-port ranking.
func formatTopPorts(tops []flowmon.PortRank) string {
	if len(tops) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("delivered UDP source ports: ")
	for i, p := range tops {
		if i > 0 {
			b.WriteString(", ")
		}
		name := fmt.Sprintf("%d", p.Port)
		if p.Port == 65535 {
			name = "others"
		}
		fmt.Fprintf(&b, "%s %.1f%%", name, p.Share*100)
	}
	b.WriteString("\n")
	return b.String()
}

func formatAttackSeries(samples []engine.Sample, every int) string {
	header := []string{"t[s]", "offered[Mbps]", "delivered[Mbps]", "nulled[Mbps]",
		"rule-drop[Mbps]", "shaped-drop[Mbps]", "#peers"}
	var rows [][]string
	for _, s := range samples {
		if s.Tick%every != 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Tick),
			fmt.Sprintf("%8.1f", s.OfferedBps/1e6),
			fmt.Sprintf("%8.1f", s.DeliveredBps/1e6),
			fmt.Sprintf("%8.1f", s.NulledBps/1e6),
			fmt.Sprintf("%8.1f", s.RuleDroppedBps/1e6),
			fmt.Sprintf("%8.1f", s.ShaperDroppedBps/1e6),
			fmt.Sprintf("%d", s.ActivePeers),
		})
	}
	return FormatTable(header, rows)
}
