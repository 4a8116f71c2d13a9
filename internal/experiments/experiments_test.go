package experiments

import (
	"fmt"
	"strings"
	"testing"

	"stellar/internal/conformance"
	"stellar/internal/mitigation"
)

// ---------------------------------------------------------------------
// Table 1

func TestTable1Shape(t *testing.T) {
	r := Table1()
	out := r.Format()
	if !strings.Contains(out, "Advanced Blackholing") || !strings.Contains(out, "Granularity") {
		t.Fatalf("format:\n%s", out)
	}
	// Advanced Blackholing must dominate every column.
	counts := mitigation.AdvantageCount()
	if counts[mitigation.AdvancedBlackholing] != 10 {
		t.Fatal("AdvBH does not sweep")
	}
}

// ---------------------------------------------------------------------
// Figure 2(c)

func TestFig2cShape(t *testing.T) {
	r := Fig2c(DefaultFig2cConfig())
	if len(r.Shares) != r.Cfg.Bins {
		t.Fatalf("bins: %d", len(r.Shares))
	}
	// Pre-attack: web service profile, HTTPS dominant, no 11211.
	if r.ShareBefore("11211") > 0.001 {
		t.Fatalf("pre-attack 11211 share: %v", r.ShareBefore("11211"))
	}
	if r.ShareBefore("443") < 0.4 {
		t.Fatalf("pre-attack 443 share: %v", r.ShareBefore("443"))
	}
	if r.ShareBefore("443") < r.ShareBefore("80") {
		t.Fatal("443 must dominate 80 pre-attack")
	}
	// During the attack: the memcached port takes over (paper shows a
	// sudden, huge increase; 40 Gbps vs 2 Gbps means >90% share).
	if r.ShareDuring("11211") < 0.9 {
		t.Fatalf("during-attack 11211 share: %v", r.ShareDuring("11211"))
	}
	// The web shares collapse but stay non-zero (service still sending).
	if r.ShareDuring("443") <= 0 || r.ShareDuring("443") > 0.1 {
		t.Fatalf("during-attack 443 share: %v", r.ShareDuring("443"))
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

// ---------------------------------------------------------------------
// Figure 3(a)

func TestFig3aShape(t *testing.T) {
	r, err := Fig3a(DefaultFig3aConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ports) != 6 {
		t.Fatalf("ports: %d", len(r.Ports))
	}
	for _, p := range r.Ports {
		// Every amplification port carries materially more share in
		// blackholed traffic, and the Welch test confirms it at α=0.02
		// — "all differences are significant" in the paper.
		if p.RTBHMean <= p.OtherMean {
			t.Errorf("port %d: RTBH %v <= other %v", p.Port, p.RTBHMean, p.OtherMean)
		}
		if !p.Significant {
			t.Errorf("port %d: not significant (p=%v)", p.Port, p.WelchP)
		}
		if p.RTBHCI <= 0 {
			t.Errorf("port %d: no CI", p.Port)
		}
	}
	// Ordering: port 0 > 123 > 389 (the figure's bar order).
	if !(r.Ports[0].RTBHMean > r.Ports[1].RTBHMean && r.Ports[1].RTBHMean > r.Ports[2].RTBHMean) {
		t.Fatal("port share ordering broken")
	}
	// Section 2.3 aggregates.
	if r.RTBHUDPShare < 0.99 {
		t.Fatalf("RTBH UDP share: %v, want ~0.9994", r.RTBHUDPShare)
	}
	if r.OtherTCPShare < 0.8 {
		t.Fatalf("other TCP share: %v, want ~0.8681", r.OtherTCPShare)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

// ---------------------------------------------------------------------
// Figure 3(b)

func TestFig3bShape(t *testing.T) {
	r := Fig3b(DefaultFig3bConfig())
	// "All" dominates at ~93.97%.
	if r.Share["All"] < 0.92 || r.Share["All"] > 0.96 {
		t.Fatalf("All share: %v", r.Share["All"])
	}
	// All-1 is the second-largest category (~5.28%).
	if r.Share["All-1"] < 0.04 || r.Share["All-1"] > 0.07 {
		t.Fatalf("All-1 share: %v", r.Share["All-1"])
	}
	for _, label := range []string{"All-18", "All-5", "All-4", "20", "21"} {
		if r.Share[label] > 0.02 {
			t.Fatalf("%s share too large: %v", label, r.Share[label])
		}
	}
	var total float64
	for _, label := range r.Order {
		total += r.Share[label]
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum: %v", total)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

// ---------------------------------------------------------------------
// Figure 3(c) — RTBH leaves most of the attack standing.

// paperScales are the member populations the attack figures are
// asserted at: the lab's small scale and the paper's 650.
var paperScales = []int{120, 650}

// paperProfile loads a paper figure's conformance profile resized to
// the given population (same honoring fraction, seed and attack).
func paperProfile(t *testing.T, name string, members int) *conformance.Profile {
	t.Helper()
	p, err := conformance.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Topology.Members = members
	return p
}

func TestFig3cShape(t *testing.T) {
	for _, members := range paperScales {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			r, err := Fig3c(paperProfile(t, "paper-fig3c", members))
			if err != nil {
				t.Fatal(err)
			}
			// Peak near the booter's 1 Gbps.
			if r.PeakBps < 0.9e9 || r.PeakBps > 1.1e9 {
				t.Fatalf("peak: %v", r.PeakBps)
			}
			// Traffic arrives via ~40 peers.
			if r.PeersBefore < 30 || r.PeersBefore > 41 {
				t.Fatalf("peers before: %v", r.PeersBefore)
			}
			// RTBH removes only the honoring peers' share: 600-800 Mbps
			// remains (the paper's headline RTBH failure).
			if r.ResidualBps < 0.5e9 || r.ResidualBps > 0.85e9 {
				t.Fatalf("residual: %v Mbps", r.ResidualBps/1e6)
			}
			// Peer count falls by roughly 25% (paper), i.e. far from zero.
			reduction := 1 - r.PeersAfter/r.PeersBefore
			if reduction < 0.10 || reduction > 0.45 {
				t.Fatalf("peer reduction: %v", reduction)
			}
			// Before the attack there is no traffic.
			if r.Samples[10].DeliveredBps != 0 {
				t.Fatalf("pre-attack traffic: %v", r.Samples[10].DeliveredBps)
			}
			if r.Format() == "" {
				t.Fatal("empty format")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Figure 9 — feasibility grids.

func TestFig9Shape(t *testing.T) {
	cfg := DefaultFig9Config()
	cfg.N = 2 // smaller unit: identical grid labels, faster allocation
	r := Fig9(cfg)
	if len(r.Grids) != 3 {
		t.Fatalf("grids: %d", len(r.Grids))
	}
	g20, g60, g100 := r.Grids[0], r.Grids[1], r.Grids[2]

	// Panel (a): 20% adoption — everything OK.
	for _, m := range g20.MACSteps {
		for _, l := range g20.L34Steps {
			if got := g20.Cell(m, l); got != "OK" {
				t.Errorf("20%% (%dN,%dN) = %s", m, l, got)
			}
		}
	}
	// Panel (b): 60% — F1 on the 4N column, F2 on the 10N row otherwise.
	for _, m := range g60.MACSteps {
		if got := g60.Cell(m, 4); got != "F1" {
			t.Errorf("60%% (%dN,4N) = %s, want F1", m, got)
		}
	}
	for _, l := range []int{0, 1, 2, 3} {
		if got := g60.Cell(10, l); got != "F2" {
			t.Errorf("60%% (10N,%dN) = %s, want F2", l, got)
		}
		if got := g60.Cell(8, l); got != "OK" {
			t.Errorf("60%% (8N,%dN) = %s, want OK", l, got)
		}
	}
	// Panel (c): 100% — F1 for L3-L4 >= 2N; F2 for MAC >= 6N at 0/1N.
	for _, m := range g100.MACSteps {
		for _, l := range []int{2, 3, 4} {
			if got := g100.Cell(m, l); got != "F1" {
				t.Errorf("100%% (%dN,%dN) = %s, want F1", m, l, got)
			}
		}
	}
	for _, l := range []int{0, 1} {
		for _, m := range []int{6, 8, 10} {
			if got := g100.Cell(m, l); got != "F2" {
				t.Errorf("100%% (%dN,%dN) = %s, want F2", m, l, got)
			}
		}
		for _, m := range []int{0, 2, 4} {
			if got := g100.Cell(m, l); got != "OK" {
				t.Errorf("100%% (%dN,%dN) = %s, want OK", m, l, got)
			}
		}
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

// ---------------------------------------------------------------------
// Figure 10(a) — CPU regression.

func TestFig10aShape(t *testing.T) {
	r, err := Fig10a(DefaultFig10aConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The regression recovers a rate close to the paper's 4.33/s.
	if r.MaxRateAtCap < 4.0 || r.MaxRateAtCap > 4.7 {
		t.Fatalf("max rate at cap: %v, want ~4.33", r.MaxRateAtCap)
	}
	// CPU usage is convincingly linear in the update rate.
	if r.Fit.R2 < 0.8 {
		t.Fatalf("R²: %v", r.Fit.R2)
	}
	if r.Fit.Slope <= 0 {
		t.Fatalf("slope: %v", r.Fit.Slope)
	}
	if r.SlopeCI95 <= 0 {
		t.Fatal("no slope CI")
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

// ---------------------------------------------------------------------
// Figure 10(b) — queue waiting time CDF.

func TestFig10bShape(t *testing.T) {
	cfg := DefaultFig10bConfig()
	cfg.DurationSec = 2 * 3600 // shorter replay for CI speed
	r := Fig10b(cfg)
	if len(r.Curves) != 2 {
		t.Fatalf("curves: %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Waits) < 1000 {
			t.Fatalf("rate %v: only %d changes", c.Rate, len(c.Waits))
		}
		// Paper: ~70% of changes wait under a second.
		if p1 := c.ECDF.P(1); p1 < 0.70 {
			t.Fatalf("rate %v: P(<=1s) = %v, want >= 0.70", c.Rate, p1)
		}
		// Paper: p95 below 100 seconds.
		if p95 := c.ECDF.Quantile(0.95); p95 >= 100 {
			t.Fatalf("rate %v: p95 = %v, want < 100", c.Rate, p95)
		}
	}
	// The faster dequeue rate dominates (stochastically) at 10 s.
	if r.Curves[1].ECDF.P(10) < r.Curves[0].ECDF.P(10) {
		t.Fatal("5/s should wait no longer than 4/s")
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

// ---------------------------------------------------------------------
// Figure 10(c) — Stellar mitigates the same attack RTBH could not.

func TestFig10cShape(t *testing.T) {
	for _, members := range paperScales {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			r, err := Fig10c(paperProfile(t, "paper-fig10c", members))
			if err != nil {
				t.Fatal(err)
			}
			// Peak ~1 Gbps from ~60 peers.
			if r.PeakBps < 0.9e9 || r.PeakBps > 1.1e9 {
				t.Fatalf("peak: %v", r.PeakBps)
			}
			if r.PeersPeak < 50 || r.PeersPeak > 61 {
				t.Fatalf("peers at peak: %v", r.PeersPeak)
			}
			// Shaped phase: traffic drops to the 200 Mbps telemetry rate...
			if r.ShapedBps < 0.18e9 || r.ShapedBps > 0.23e9 {
				t.Fatalf("shaped: %v Mbps, want ~200", r.ShapedBps/1e6)
			}
			// ...while the peer count stays (nearly) constant — the
			// shaping queue passes a proportional sample of every peer.
			if r.PeersShaped < r.PeersPeak*0.9 {
				t.Fatalf("peers under shaping: %v (peak %v)", r.PeersShaped, r.PeersPeak)
			}
			// Drop phase: close to zero.
			if r.FinalBps > 0.02e9 {
				t.Fatalf("final: %v Mbps, want ~0", r.FinalBps/1e6)
			}
			if r.PeersFinal > r.PeersPeak*0.1 {
				t.Fatalf("peers after drop: %v", r.PeersFinal)
			}
			if r.Format() == "" {
				t.Fatal("empty format")
			}
		})
	}
}

// TestStellarBeatsRTBHHeadToHead is the paper's central comparison:
// on the same attack shape, Stellar removes what RTBH leaves standing.
func TestStellarBeatsRTBHHeadToHead(t *testing.T) {
	for _, members := range paperScales {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			rtbh, err := Fig3c(paperProfile(t, "paper-fig3c", members))
			if err != nil {
				t.Fatal(err)
			}
			stellar, err := Fig10c(paperProfile(t, "paper-fig10c", members))
			if err != nil {
				t.Fatal(err)
			}
			// RTBH leaves >half the attack; Stellar's drop phase leaves
			// ~none.
			if rtbh.ResidualBps < 10*stellar.FinalBps {
				t.Fatalf("RTBH residual %v vs Stellar final %v: expected >10x gap",
					rtbh.ResidualBps, stellar.FinalBps)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Section 5.2

func TestSec52Shape(t *testing.T) {
	r, err := Sec52(9)
	if err != nil {
		t.Fatal(err)
	}
	if r.NTPDeliveredBps != 0 {
		t.Fatalf("NTP delivered: %v", r.NTPDeliveredBps)
	}
	// DNS shaped to ~100 Mbps.
	if r.DNSDeliveredBps < 0.9e8 || r.DNSDeliveredBps > 1.1e8 {
		t.Fatalf("DNS delivered: %v", r.DNSDeliveredBps)
	}
	// Benign passes untouched.
	if r.BenignDeliveredBps < r.BenignOfferedBps*0.99 {
		t.Fatalf("benign delivered: %v of %v", r.BenignDeliveredBps, r.BenignOfferedBps)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}
