package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/conformance"
	"stellar/internal/engine"
	"stellar/internal/flowmon"
)

// Fig3cResult is the RTBH attack time series plus its headline metrics.
type Fig3cResult struct {
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

// Fig3c reproduces Figure 3(c): a booter attack on a /32 the
// experimental AS operates, mitigated with classic RTBH. Because ~70% of
// the peers do not honor the blackhole, the attack traffic only drops to
// 600-800 Mbps and the peer count falls by only ~25%.
//
// The scenario is the "paper-fig3c" conformance profile (callers may
// resize its topology); the figure's phase means are the measured values
// of the profile's own expectations.
func Fig3c(p *conformance.Profile) (Fig3cResult, error) {
	res, err := conformance.Run(p)
	if err != nil {
		return Fig3cResult{}, err
	}
	m, err := measured(res, "attack steady state", "residual after RTBH",
		"peers at steady state", "peers after RTBH")
	if err != nil {
		return Fig3cResult{}, err
	}
	ticks := eventTicks(p, "rtbh")
	if len(ticks) != 1 {
		return Fig3cResult{}, fmt.Errorf("experiments: profile %s signals RTBH %d times, want 1", p.Name, len(ticks))
	}
	return Fig3cResult{
		Samples:  res.Series[0].Samples,
		RTBHTick: ticks[0],
		PeakBps:  m[0], ResidualBps: m[1],
		PeersBefore: m[2], PeersAfter: m[3],
		TopPorts: res.Series[0].Monitor.TopSrcPorts(3),
	}, nil
}

// measured returns the Measured value of each named check of the run,
// in argument order.
func measured(res *conformance.Result, names ...string) ([]float64, error) {
	byName := make(map[string]float64, len(res.Report.Checks))
	for _, c := range res.Report.Checks {
		byName[c.Name] = c.Measured
	}
	out := make([]float64, len(names))
	for i, name := range names {
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("experiments: profile %s has no %q expectation", res.Report.Profile, name)
		}
		out[i] = v
	}
	return out, nil
}

// eventTicks lists the ticks of the profile's events with the action.
func eventTicks(p *conformance.Profile, action string) []int {
	var ticks []int
	for _, ev := range p.Events {
		if ev.Action == action {
			ticks = append(ticks, ev.Tick)
		}
	}
	return ticks
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
