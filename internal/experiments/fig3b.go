package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// Fig3bConfig parameterizes the policy-usage study.
type Fig3bConfig struct {
	Seed uint64
	// Announcements is the number of RTBH announcements sampled.
	Announcements int
}

// DefaultFig3bConfig returns the default sampling size.
func DefaultFig3bConfig() Fig3bConfig { return Fig3bConfig{Seed: 13, Announcements: 100000} }

// Fig3bResult is the categorical distribution of export policies on
// blackholing announcements at L-IXP.
type Fig3bResult struct {
	// Order lists the categories in the figure's x-axis order.
	Order []string
	// Share maps category to its observed fraction.
	Share map[string]float64
	// PaperShare maps category to the published fraction.
	PaperShare map[string]float64
}

// Fig3b reproduces Figure 3(b): for >93% of blackholing events, the
// prefix owner asks all route server peers to blackhole; small
// minorities carve out exceptions (All-1 ... All-18) or whitelist
// specific ASes.
func Fig3b(cfg Fig3bConfig) Fig3bResult {
	rng := stats.NewRand(cfg.Seed)
	samples := traffic.SamplePolicies(cfg.Announcements, rng)
	counts := make(map[string]int)
	for _, s := range samples {
		counts[s.Label]++
	}
	res := Fig3bResult{
		Share:      make(map[string]float64),
		PaperShare: make(map[string]float64),
	}
	for _, p := range traffic.PolicyShares() {
		res.Order = append(res.Order, p.Label)
		res.PaperShare[p.Label] = p.Share
		res.Share[p.Label] = float64(counts[p.Label]) / float64(cfg.Announcements)
	}
	return res
}

// Format renders the distribution alongside the published values.
func (r Fig3bResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3(b): usage of policy control for RTBH at L-IXP\n")
	header := []string{"affected ASNs", "share of announcements [%]", "paper [%]"}
	var rows [][]string
	for _, label := range r.Order {
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%7.2f", r.Share[label]*100),
			fmt.Sprintf("%7.2f", r.PaperShare[label]*100),
		})
	}
	b.WriteString(FormatTable(header, rows))
	return b.String()
}
