package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// Fig2cConfig parameterizes the collateral-damage measurement.
type Fig2cConfig struct {
	Seed uint64
	// Bins is the number of time bins (the paper plots ~1 h in 5-min
	// bins around the 2018-04-29 memcached attack).
	Bins int
	// AttackStartBin is when the memcached amplification begins
	// (20:21 CET in the paper).
	AttackStartBin int
	// WebRateBps is the service's benign traffic level.
	WebRateBps float64
	// AttackRateBps is the amplification peak (40 Gbps in the paper).
	AttackRateBps float64
}

// DefaultFig2cConfig mirrors the paper's episode.
func DefaultFig2cConfig() Fig2cConfig {
	return Fig2cConfig{Seed: 42, Bins: 60, AttackStartBin: 21, WebRateBps: 2e9, AttackRateBps: 40e9}
}

// Fig2cResult is the per-bin port-share decomposition of traffic toward
// the IXP member under attack.
type Fig2cResult struct {
	Cfg Fig2cConfig
	// Labels are the plot series (ports), ordered as in the figure.
	Labels []string
	// Shares[bin][label] is the byte share of that series in the bin.
	Shares []map[string]float64
}

// Fig2c reproduces Figure 2(c): the traffic mix toward one member before
// and during a memcached amplification attack, showing how the attack
// port (UDP source 11211) displaces the web service's traffic share —
// the collateral-damage setting RTBH cannot express.
//
// The bin-by-bin mix runs through the flow-monitoring pipeline: every
// offer streams into a flowmon.Collector as an IPFIX-style record, and
// the figure's labels derive from the collector's per-bin share
// accessors. The attack is pure UDP source-port 11211 toward TCP 443's
// destination port, so the web service's 443 share is the destination-
// port-443 share minus the attack's UDP share; the remaining mix ports
// (80, 8080, 1935) carry only TCP and read off directly.
func Fig2c(cfg Fig2cConfig) Fig2cResult {
	rng := stats.NewRand(cfg.Seed)
	target := netip.MustParseAddr("100.10.10.10")
	peers := traffic.MakePeers(40)

	web := traffic.NewWebService(target, peers[:8], cfg.WebRateBps, rng)
	attack := traffic.NewAttack(traffic.VectorMemcached, target, peers, cfg.AttackRateBps,
		cfg.AttackStartBin, cfg.Bins, rng)
	attack.RampTicks = 2

	mon := flowmon.NewCollector()
	var offers []fabric.Offer
	var recs []flowmon.Record
	for bin := 0; bin < cfg.Bins; bin++ {
		offers = web.AppendOffers(offers[:0], bin, 300) // 5-minute bins
		offers = attack.AppendOffers(offers, bin, 300)
		recs = recs[:0]
		for _, o := range offers {
			recs = append(recs, flowmon.Record{Bin: bin, Key: *o.Flow, Bytes: o.Bytes, Packets: o.Packets})
		}
		mon.ObserveBatch(recs)
	}

	res := Fig2cResult{Cfg: cfg, Labels: []string{"11211", "others", "8080", "1935", "443", "80"}}
	for bin := 0; bin < cfg.Bins; bin++ {
		shares := make(map[string]float64)
		if mon.TotalBytes(bin) > 0 {
			dst := mon.DstPortShares(bin)
			attackShare := mon.SrcPortShares(bin)[11211]
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
	return res
}

// ShareBefore returns the mean share of a label before the attack.
func (r Fig2cResult) ShareBefore(label string) float64 {
	return r.meanShare(label, 0, r.Cfg.AttackStartBin)
}

// ShareDuring returns the mean share of a label during the attack
// (excluding the ramp bins).
func (r Fig2cResult) ShareDuring(label string) float64 {
	return r.meanShare(label, r.Cfg.AttackStartBin+3, r.Cfg.Bins)
}

func (r Fig2cResult) meanShare(label string, from, to int) float64 {
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
func (r Fig2cResult) Format() string {
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
	b.WriteString(FormatTable(header, rows))
	fmt.Fprintf(&b, "\npre-attack:  443 share %.1f%%, 11211 share %.1f%%\n",
		r.ShareBefore("443")*100, r.ShareBefore("11211")*100)
	fmt.Fprintf(&b, "during:      443 share %.1f%%, 11211 share %.1f%%\n",
		r.ShareDuring("443")*100, r.ShareDuring("11211")*100)
	return b.String()
}
