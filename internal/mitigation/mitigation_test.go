package mitigation

import (
	"math"
	"net/netip"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1()
	if len(tbl) != 10 {
		t.Fatalf("rows: %d", len(tbl))
	}
	// Spot checks straight from the published table.
	checks := []struct {
		p    Property
		tech Technique
		want Rating
	}{
		{Granularity, RTBH, Disadvantage},
		{Granularity, AdvancedBlackholing, Advantage},
		{SignalingComplexity, TSS, Disadvantage},
		{SignalingComplexity, AdvancedBlackholing, Advantage},
		{Cooperation, TSS, Neutral},
		{Cooperation, Flowspec, Disadvantage},
		{ResourceSharing, Flowspec, Disadvantage},
		{Telemetry, Flowspec, Neutral},
		{Telemetry, ACL, Disadvantage},
		{Scalability, TSS, Disadvantage},
		{Scalability, ACL, Neutral},
		{Resources, RTBH, Advantage},
		{Performance, TSS, Disadvantage},
		{ReactionTime, RTBH, Advantage},
		{Costs, ACL, Neutral},
		{Costs, AdvancedBlackholing, Advantage},
	}
	for _, c := range checks {
		if got := tbl[c.p][c.tech]; got != c.want {
			t.Errorf("Table1[%v][%v] = %v, want %v", c.p, c.tech, got, c.want)
		}
	}
}

func TestAdvancedBlackholingSweepsTable1(t *testing.T) {
	counts := AdvantageCount()
	if counts[AdvancedBlackholing] != 10 {
		t.Fatalf("AdvBH advantages: %d, want 10", counts[AdvancedBlackholing])
	}
	for _, tech := range []Technique{TSS, ACL, RTBH, Flowspec} {
		if counts[tech] >= counts[AdvancedBlackholing] {
			t.Errorf("%v has %d advantages, must be < AdvBH", tech, counts[tech])
		}
	}
}

func TestStrings(t *testing.T) {
	for _, tech := range []Technique{TSS, ACL, RTBH, Flowspec, AdvancedBlackholing} {
		if tech.String() == "" {
			t.Fatal("technique string")
		}
	}
	if Advantage.String() != "+" || Neutral.String() != "o" || Disadvantage.String() != "-" {
		t.Fatal("rating strings")
	}
	if Granularity.String() != "Granularity" || Costs.String() != "Costs" {
		t.Fatal("property strings")
	}
}

func ntpFlow() *netpkt.FlowKey {
	return &netpkt.FlowKey{
		Src: netip.MustParseAddr("198.51.100.1"), Dst: netip.MustParseAddr("100.10.10.10"),
		Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
	}
}

func webFlow() *netpkt.FlowKey {
	return &netpkt.FlowKey{
		Src: netip.MustParseAddr("203.0.113.9"), Dst: netip.MustParseAddr("100.10.10.10"),
		Proto: netpkt.ProtoTCP, SrcPort: 50000, DstPort: 443,
	}
}

func ntpMatch() fabric.Match {
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	return m
}

func TestScrubberCleansTraffic(t *testing.T) {
	s := &Scrubber{CapacityBps: 1e12, DetectionRate: 0.99, FalsePositiveRate: 0.01, CostPerGB: 2}
	r := s.Scrub(1e9, 1e8, 1)
	if math.Abs(r.LeakedAttackBytes-1e9*0.01) > 1 {
		t.Fatalf("leak: %v", r.LeakedAttackBytes)
	}
	if math.Abs(r.CleanBenignBytes-1e8*0.99) > 1 {
		t.Fatalf("clean: %v", r.CleanBenignBytes)
	}
	wantCost := (1e9 + 1e8) / 1e9 * 2
	if math.Abs(r.Cost-wantCost) > 1e-9 || math.Abs(s.TotalCost-wantCost) > 1e-9 {
		t.Fatalf("cost: %v total %v", r.Cost, s.TotalCost)
	}
}

func TestScrubberOverload(t *testing.T) {
	// A Tbps-scale attack exceeds the scrubbing capacity: traffic beyond
	// the ingest limit is lost regardless of class.
	s := &Scrubber{CapacityBps: 8e9, DetectionRate: 1, FalsePositiveRate: 0}
	attack := 2e9 * 1.0 // bytes over 1s = 16 Gbps > 8 Gbps capacity
	benign := 1e8
	r := s.Scrub(attack, benign, 1)
	if r.CleanBenignBytes >= benign {
		t.Fatalf("benign survived overload untouched: %v", r.CleanBenignBytes)
	}
	admitted := 8e9 / 8.0
	frac := admitted / (attack + benign)
	if math.Abs(r.CleanBenignBytes-benign*frac) > 1 {
		t.Fatalf("benign: %v want %v", r.CleanBenignBytes, benign*frac)
	}
}

func TestScrubberConservation(t *testing.T) {
	s := &Scrubber{CapacityBps: 1e10, DetectionRate: 0.9, FalsePositiveRate: 0.05}
	attack, benign := 3e8, 2e8
	r := s.Scrub(attack, benign, 1)
	total := r.CleanBenignBytes + r.LeakedAttackBytes + r.DroppedBytes
	if math.Abs(total-(attack+benign)) > 1 {
		t.Fatalf("conservation: %v vs %v", total, attack+benign)
	}
}

func TestFlowspecPeer(t *testing.T) {
	accepting := &FlowspecPeer{Accepts: true, Rules: []fabric.Match{ntpMatch()}}
	refusing := &FlowspecPeer{Accepts: false, Rules: []fabric.Match{ntpMatch()}}
	if !accepting.FiltersFlow(ntpFlow()) {
		t.Fatal("accepting peer did not filter")
	}
	if accepting.FiltersFlow(webFlow()) {
		t.Fatal("accepting peer filtered benign flow")
	}
	if refusing.FiltersFlow(ntpFlow()) {
		t.Fatal("refusing peer filtered")
	}
}

func TestFlowSpecToMatch(t *testing.T) {
	fs := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.DstPrefix(netip.MustParsePrefix("100.10.10.10/32")),
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(17)),
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123)),
	}}
	ms := mustFlowSpecMatches(t, fs)
	if len(ms) != 1 {
		t.Fatalf("simple flowspec compiled to %d matches, want 1", len(ms))
	}
	m := ms[0]
	if m.Proto != netpkt.ProtoUDP || m.SrcPort != 123 || m.DstPort != fabric.AnyPort {
		t.Fatalf("match: %+v", m)
	}
	if !m.Matches(ntpFlow()) {
		t.Fatal("compiled match misses the NTP flow")
	}
	if m.Matches(webFlow()) {
		t.Fatal("compiled match hits benign flow")
	}
}

func TestFlowSpecToMatchRejectsComplex(t *testing.T) {
	// Port ranges need slow-path processing: not expressible as exact
	// TCAM patterns.
	rangeSpec := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSDstPort,
			bgp.FlowSpecMatch{GT: true, EQ: true, Value: 1000},
			bgp.FlowSpecMatch{AND: true, LT: true, EQ: true, Value: 2000}),
	}}
	if _, err := FlowSpecToMatches(rangeSpec); err == nil {
		t.Fatal("range compiled")
	}
	fragSpec := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSFragment, bgp.Eq(1)),
	}}
	if _, err := FlowSpecToMatches(fragSpec); err == nil {
		t.Fatal("fragment component compiled")
	}
	ltSpec := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSSrcPort, bgp.FlowSpecMatch{LT: true, Value: 1024}),
	}}
	if _, err := FlowSpecToMatches(ltSpec); err == nil {
		t.Fatal("less-than compiled")
	}
}

func TestFlowSpecAction(t *testing.T) {
	drop := &bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(64512, 0)}}
	if a, _, ok := FlowSpecAction(drop); !ok || a != fabric.ActionDrop {
		t.Fatalf("drop: %v %v", a, ok)
	}
	shape := &bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(64512, 25e6)}}
	a, rate, ok := FlowSpecAction(shape)
	if !ok || a != fabric.ActionShape || rate != 200e6 {
		t.Fatalf("shape: %v %v %v", a, rate, ok)
	}
	none := &bgp.PathAttrs{}
	if _, _, ok := FlowSpecAction(none); ok {
		t.Fatal("action without communities")
	}
}
