package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/conformance"
)

// fig2cResult is the per-tick port-share decomposition of traffic toward
// the IXP member under attack.
type fig2cResult struct {
	// AttackStart is the tick the memcached amplification begins (20:21
	// CET in the paper).
	AttackStart int
	// Labels are the plot series (ports), ordered as in the figure.
	Labels []string
	// Shares[tick][label] is the byte share of that series in the tick.
	Shares []map[string]float64
}

// fig2c reproduces Figure 2(c): the traffic mix toward one member before
// and during a memcached amplification attack, showing how the attack
// port (UDP source 11211) displaces the web service's traffic share —
// the collateral-damage setting RTBH cannot express.
//
// The scenario is the "paper-fig2c" conformance profile; the per-tick mix
// is read off the victim's flow monitor. The port carries more than the
// peak, so what the monitor sees delivered is what was offered. The
// attack is pure UDP source-port 11211 toward TCP 443's destination
// port, so the web service's 443 share is the destination-port-443 share
// minus the attack's UDP share; the remaining mix ports (80, 8080, 1935)
// carry only TCP and read off directly.
func fig2c(p *conformance.Profile) (fig2cResult, error) {
	run, err := conformance.Run(p)
	if err != nil {
		return fig2cResult{}, err
	}
	res := fig2cResult{AttackStart: -1, Labels: []string{"11211", "others", "8080", "1935", "443", "80"}}
	for _, s := range p.Victims[0].Sources {
		if s.Kind == "attack" {
			res.AttackStart = s.StartTick
		}
	}
	if res.AttackStart < 0 {
		return fig2cResult{}, fmt.Errorf("experiments: profile %s has no attack source", p.Name)
	}
	mon := run.Series[0].Monitor
	for tick := 0; tick < p.Run.Ticks; tick++ {
		shares := make(map[string]float64)
		if mon.TotalBytes(tick) > 0 {
			dst := mon.DstPortShares(tick)
			attackShare := mon.SrcPortShares(tick)[11211]
			shares["11211"] = attackShare
			named := attackShare
			for _, port := range []uint16{80, 8080, 1935} {
				shares[fmt.Sprintf("%d", port)] = dst[port]
				named += dst[port]
			}
			tcp443 := dst[443] - attackShare
			if tcp443 < 0 {
				tcp443 = 0
			}
			shares["443"] = tcp443
			named += tcp443
			if rest := 1 - named; rest > 0 {
				shares["others"] = rest
			}
		}
		res.Shares = append(res.Shares, shares)
	}
	return res, nil
}

// ShareBefore returns the mean share of a label before the attack.
func (r fig2cResult) ShareBefore(label string) float64 {
	return r.meanShare(label, 0, r.AttackStart)
}

// ShareDuring returns the mean share of a label during the attack
// (excluding the ramp ticks).
func (r fig2cResult) ShareDuring(label string) float64 {
	return r.meanShare(label, r.AttackStart+3, len(r.Shares))
}

func (r fig2cResult) meanShare(label string, from, to int) float64 {
	var sum float64
	n := 0
	for bin := from; bin < to && bin < len(r.Shares); bin++ {
		sum += r.Shares[bin][label]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Format renders the series as the paper's stacked-share table.
func (r fig2cResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 2(c): traffic share toward IXP member under memcached attack [%]\n")
	header := append([]string{"bin"}, r.Labels...)
	var rows [][]string
	for bin, shares := range r.Shares {
		if bin%5 != 0 {
			continue // sample every 5 bins for readability
		}
		row := []string{fmt.Sprintf("%d", bin)}
		for _, label := range r.Labels {
			row = append(row, fmt.Sprintf("%5.1f", shares[label]*100))
		}
		rows = append(rows, row)
	}
	b.WriteString(formatTable(header, rows))
	fmt.Fprintf(&b, "\npre-attack:  443 share %.1f%%, 11211 share %.1f%%\n",
		r.ShareBefore("443")*100, r.ShareBefore("11211")*100)
	fmt.Fprintf(&b, "during:      443 share %.1f%%, 11211 share %.1f%%\n",
		r.ShareDuring("443")*100, r.ShareDuring("11211")*100)
	return b.String()
}
