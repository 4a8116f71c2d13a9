package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/conformance"
)

// sec52Result is the lab functionality validation of Section 5.2: a
// 10 Gbps generator drives NTP, DNS and benign flows into a 1 Gbps
// member port, with NTP dropped and DNS shaped.
type sec52Result struct {
	// Rates delivered per class, bps.
	NTPDeliveredBps    float64
	DNSDeliveredBps    float64
	BenignDeliveredBps float64
	DNSShapeRateBps    float64
}

// sec52 reproduces the Section 5.2 lab experiment: flows redirected to
// the dropping queue are not forwarded; flows redirected to a shaping
// queue share the shaping rate; benign traffic passes the port
// untouched even though the generator exceeds the port capacity 10x.
//
// The scenario is the "sec52-lab" conformance profile; the per-class
// rates are read from its victim's flow monitor, with classes keyed by
// UDP source port, matching the lab's queue assignment.
func sec52(p *conformance.Profile) (sec52Result, error) {
	run, err := conformance.Run(p)
	if err != nil {
		return sec52Result{}, err
	}
	var res sec52Result
	for _, ev := range p.Events {
		if ev.Effect == "shape" {
			res.DNSShapeRateBps = ev.RateBps
		}
	}
	ticks := float64(p.Run.Ticks)
	mon := run.Series[0].Monitor
	for _, bin := range mon.Bins() {
		ntpBytes := mon.SrcPortBytes(bin, 123)
		dnsBytes := mon.SrcPortBytes(bin, 53)
		res.NTPDeliveredBps += ntpBytes * 8 / ticks
		res.DNSDeliveredBps += dnsBytes * 8 / ticks
		res.BenignDeliveredBps += (mon.TotalBytes(bin) - ntpBytes - dnsBytes) * 8 / ticks
	}
	return res, nil
}

// Format renders the validation summary.
func (r sec52Result) Format() string {
	var b strings.Builder
	b.WriteString("Section 5.2 functionality: 10 Gbps generator into a 1 Gbps member port\n")
	header := []string{"class", "offered", "delivered", "expected"}
	rows := [][]string{
		{"NTP (drop queue)", "5.0 Gbps", fmt.Sprintf("%.1f Mbps", r.NTPDeliveredBps/1e6), "0"},
		{"DNS (shape queue)", "4.5 Gbps", fmt.Sprintf("%.1f Mbps", r.DNSDeliveredBps/1e6),
			fmt.Sprintf("%.0f Mbps", r.DNSShapeRateBps/1e6)},
		{"benign web", "0.5 Gbps", fmt.Sprintf("%.1f Mbps", r.BenignDeliveredBps/1e6), "500 Mbps (untouched)"},
	}
	b.WriteString(formatTable(header, rows))
	return b.String()
}
