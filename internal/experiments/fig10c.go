package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"stellar/internal/conformance"
	"stellar/internal/engine"
	"stellar/internal/flowmon"
	"stellar/internal/mitctl"
)

// fig10cResult is the Stellar attack time series plus headline metrics.
type fig10cResult struct {
	Samples []engine.Sample
	// ShapeTick is when the victim signaled IXP:2:123 with a 200 Mbps
	// shape; DropTick is when it escalated to dropping all UDP.
	ShapeTick, DropTick int
	// Phase means.
	PeakBps     float64
	ShapedBps   float64
	FinalBps    float64
	PeersPeak   float64
	PeersShaped float64
	PeersFinal  float64
	// ShapeLatency is the signal-to-configuration delay of the first
	// requested mitigation: its InstalledAt − RequestedAt.
	ShapeLatency float64
	// TopPorts is the victim monitor's UDP source-port ranking across
	// the run; during the telemetry (shaping) phase the NTP signature
	// stays visible, which is Advanced Blackholing's point.
	TopPorts []flowmon.PortRank
}

// fig10c reproduces Figure 10(c): the booter attack mitigated with
// Advanced Blackholing. 200 s into the attack the victim signals a
// 200 Mbps shape on UDP source port 123 (telemetry mode); the traffic
// drops to the shaping rate while the peer count stays constant. 200 s
// later it escalates to dropping all UDP, driving the attack to ~zero.
//
// The scenario is the "paper-fig10c" conformance profile (callers may
// resize its topology); the figure's phase means are the measured values
// of the profile's own expectations.
func fig10c(p *conformance.Profile) (fig10cResult, error) {
	res, err := conformance.Run(p)
	if err != nil {
		return fig10cResult{}, err
	}
	m, err := measured(res, "attack steady state", "shaped to 200 Mbps", "attack dropped",
		"peers at steady state", "peers under shaping", "peers after drop")
	if err != nil {
		return fig10cResult{}, err
	}
	ticks := eventTicks(p, "mitigate")
	if len(ticks) != 2 {
		return fig10cResult{}, fmt.Errorf("experiments: profile %s signals %d mitigations, want shape then drop", p.Name, len(ticks))
	}
	r := fig10cResult{
		Samples:   res.Series[0].Samples,
		ShapeTick: ticks[0], DropTick: ticks[1],
		PeakBps: m[0], ShapedBps: m[1], FinalBps: m[2],
		PeersPeak: m[3], PeersShaped: m[4], PeersFinal: m[5],
		TopPorts: res.Series[0].Monitor.TopSrcPorts(3),
	}
	if ms := res.IXP.Mitigations.Snapshot(); len(ms) > 0 {
		first := slices.MinFunc(ms, func(a, b mitctl.Mitigation) int { return cmp.Compare(a.RequestedAt, b.RequestedAt) })
		r.ShapeLatency = first.InstalledAt - first.RequestedAt
	}
	return r, nil
}

// Format renders the time series and phase metrics.
func (r fig10cResult) Format() string {
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
