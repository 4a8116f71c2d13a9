package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// fig3aConfig parameterizes the blackholed-traffic port study.
type fig3aConfig struct {
	Seed uint64
	// Events is the number of blackholing events sampled (two weeks of
	// L-IXP events in the paper).
	Events int
	// Alpha is the significance level of the one-tailed Welch test
	// (0.02 in the paper).
	Alpha float64
}

// newFig3aConfig mirrors the paper's setup; the small scale samples 50
// events.
func newFig3aConfig(o Options) fig3aConfig {
	cfg := fig3aConfig{Seed: o.seed(7), Events: 200, Alpha: 0.02}
	if o.Small {
		cfg.Events = 50
	}
	return cfg
}

// fig3aPort is one bar pair of Figure 3(a).
type fig3aPort struct {
	Port        uint16
	App         string
	RTBHMean    float64 // mean share in blackholed traffic
	RTBHCI      float64 // 95% CI half-width
	OtherMean   float64 // mean share in non-blackholed traffic
	OtherCI     float64
	WelchP      float64 // one-tailed p for RTBH > other
	Significant bool
}

// fig3aResult is the full Figure 3(a) dataset plus the Section 2.3
// protocol aggregates.
type fig3aResult struct {
	Ports []fig3aPort
	// Protocol mix aggregates (Section 2.3).
	RTBHUDPShare  float64
	RTBHTCPShare  float64
	OtherTCPShare float64
}

var fig3aApps = map[uint16]string{
	0: "unass.", 123: "ntp", 389: "ldap", 11211: "memc.", 53: "domain", 19: "chargen",
}

// fig3a reproduces Figure 3(a): the UDP source-port decomposition of
// blackholed vs other traffic across blackholing events, with 95%
// confidence intervals and the paper's one-tailed Welch's t-test at
// significance level 0.02.
func fig3a(cfg fig3aConfig) (fig3aResult, error) {
	rng := stats.NewRand(cfg.Seed)
	rtbhEvents := traffic.SampleEvents(traffic.RTBHPortProfile(), cfg.Events, rng)
	otherEvents := traffic.SampleEvents(traffic.OtherPortProfile(), cfg.Events, rng)

	var res fig3aResult
	for _, port := range []uint16{0, 123, 389, 11211, 53, 19} {
		rtbhShares := make([]float64, len(rtbhEvents))
		for i, ev := range rtbhEvents {
			rtbhShares[i] = ev.PortShare[port]
		}
		otherShares := make([]float64, len(otherEvents))
		for i, ev := range otherEvents {
			otherShares[i] = ev.PortShare[port]
		}
		rtbhMean, rtbhCI := stats.MeanCI(rtbhShares, 0.95)
		otherMean, otherCI := stats.MeanCI(otherShares, 0.95)
		p, err := stats.WelchTTest(rtbhShares, otherShares)
		if err != nil {
			return res, err
		}
		res.Ports = append(res.Ports, fig3aPort{
			Port: port, App: fig3aApps[port],
			RTBHMean: rtbhMean, RTBHCI: rtbhCI,
			OtherMean: otherMean, OtherCI: otherCI,
			WelchP: p, Significant: p < cfg.Alpha,
		})
	}
	rtbhMix := traffic.RTBHProtoMix()
	otherMix := traffic.OtherProtoMix()
	res.RTBHUDPShare = rtbhMix.UDP
	res.RTBHTCPShare = rtbhMix.TCP
	res.OtherTCPShare = otherMix.TCP
	return res, nil
}

// Format renders the figure's bars as a table.
func (r fig3aResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3(a): UDP source ports of blackholed traffic across RTBH events (95% CI)\n")
	header := []string{"port", "app", "RTBH share [%]", "other share [%]", "Welch p", "significant(α=0.02)"}
	var rows [][]string
	for _, p := range r.Ports {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Port), p.App,
			fmt.Sprintf("%5.2f ± %4.2f", p.RTBHMean*100, p.RTBHCI*100),
			fmt.Sprintf("%5.2f ± %4.2f", p.OtherMean*100, p.OtherCI*100),
			fmt.Sprintf("%.2e", p.WelchP),
			fmt.Sprintf("%v", p.Significant),
		})
	}
	b.WriteString(formatTable(header, rows))
	fmt.Fprintf(&b, "\nSection 2.3 aggregates: UDP %.2f%% of blackholed bytes (TCP %.2f%%); TCP %.2f%% of other traffic\n",
		r.RTBHUDPShare*100, r.RTBHTCPShare*100, r.OtherTCPShare*100)
	return b.String()
}
