package mitigation

import (
	"errors"
	"net/netip"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

func TestFlowSpecToMatchesValueSets(t *testing.T) {
	// src-port {123, 11211} × proto {UDP}: the OR semantics of RFC 5575
	// numeric operands expand to one exact-match pattern per value.
	fs := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.DstPrefix(netip.MustParsePrefix("100.10.10.10/32")),
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(uint64(netpkt.ProtoUDP))),
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123), bgp.Eq(11211)),
	}}
	ms, err := FlowSpecToMatches(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches: %d", len(ms))
	}
	ports := map[int32]bool{}
	for _, m := range ms {
		if m.Proto != netpkt.ProtoUDP || m.DstIP.String() != "100.10.10.10/32" {
			t.Fatalf("match: %v", m)
		}
		ports[m.SrcPort] = true
	}
	if !ports[123] || !ports[11211] {
		t.Fatalf("ports: %v", ports)
	}

	// Cross product: 2 protos × 2 dst ports = 4 patterns.
	cross := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(6), bgp.Eq(17)),
		bgp.Numeric(bgp.FSDstPort, bgp.Eq(80), bgp.Eq(443)),
	}}
	ms, err = FlowSpecToMatches(cross)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("cross product: %d", len(ms))
	}

	// The multi-value set matches each value, nothing else.
	flow := netpkt.FlowKey{
		Src: netip.MustParseAddr("198.51.100.1"), Dst: netip.MustParseAddr("100.10.10.10"),
		Proto: netpkt.ProtoUDP, SrcPort: 11211, DstPort: 443,
	}
	matched := false
	for _, m := range mustFlowSpecMatches(t, fs) {
		if m.Matches(&flow) {
			matched = true
		}
	}
	if !matched {
		t.Fatal("11211 flow not matched by expanded set")
	}
}

func mustFlowSpecMatches(t *testing.T, fs *bgp.FlowSpec) []fabric.Match {
	t.Helper()
	ms, err := FlowSpecToMatches(fs)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestFlowSpecToMatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		fs   *bgp.FlowSpec
		want error
	}{
		{"range", &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
			bgp.Numeric(bgp.FSSrcPort, bgp.FlowSpecMatch{GT: true, Value: 1023}),
		}}, ErrFlowSpecNonEquality},
		{"unsupported-type", &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
			bgp.Numeric(bgp.FSFragment, bgp.Eq(1)),
		}}, ErrFlowSpecComponent},
		{"value-overflow", &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
			bgp.Numeric(bgp.FSIPProto, bgp.Eq(300)),
		}}, ErrFlowSpecValue},
		{"empty-operands", &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
			{Type: bgp.FSSrcPort},
		}}, ErrFlowSpecValue},
	}
	for _, c := range cases {
		if _, err := FlowSpecToMatches(c.fs); !errors.Is(err, c.want) {
			t.Fatalf("%s: err %v, want %v", c.name, err, c.want)
		}
	}

	// Expansion cap: 9 × 8 = 72 > MaxFlowSpecMatches.
	var protos, ports []bgp.FlowSpecMatch
	for i := 0; i < 9; i++ {
		protos = append(protos, bgp.Eq(uint64(1+i)))
	}
	for i := 0; i < 8; i++ {
		ports = append(ports, bgp.Eq(uint64(1000+i)))
	}
	wide := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSIPProto, protos...),
		bgp.Numeric(bgp.FSSrcPort, ports...),
	}}
	if _, err := FlowSpecToMatches(wide); !errors.Is(err, ErrFlowSpecTooWide) {
		t.Fatalf("wide: %v", err)
	}
}

func TestFlowSpecToMatchSinglePatternOnly(t *testing.T) {
	// A caller with room for one pattern per spec requires len == 1: a
	// value set expands past it, a single value does not.
	multi := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123), bgp.Eq(11211)),
	}}
	if ms := mustFlowSpecMatches(t, multi); len(ms) != 2 {
		t.Fatalf("multi-value: %d patterns, want 2", len(ms))
	}
	single := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123)),
	}}
	if ms := mustFlowSpecMatches(t, single); len(ms) != 1 || ms[0].SrcPort != 123 {
		t.Fatalf("single: %v", ms)
	}
}
