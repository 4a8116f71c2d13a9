package core

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/netpkt"
)

var (
	victimPrefix = netip.MustParsePrefix("100.10.10.10/32")
	victimMAC    = netpkt.MustParseMAC("02:00:00:00:00:01")
)

func TestSignalEncodeDecodeDrop(t *testing.T) {
	spec := DropUDPSrcPort(123)
	ec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := DecodeSignal(ec)
	if !ok {
		t.Fatal("decode failed")
	}
	if got != spec {
		t.Fatalf("roundtrip: got %+v want %+v", got, spec)
	}
}

func TestSignalEncodeDecodeShape(t *testing.T) {
	spec := RuleSpec{Selector: SelUDPSrcPort, Proto: netpkt.ProtoUDP, Port: 123, Action: fabric.ActionShape, ShapeRateBps: 200e6} // the paper's 200 Mbps telemetry shape
	ec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := DecodeSignal(ec)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.Action != fabric.ActionShape || got.ShapeRateBps != 200e6 {
		t.Fatalf("shape roundtrip: %+v", got)
	}
}

func TestSignalEncodeDecodeProto(t *testing.T) {
	spec := RuleSpec{Selector: SelProto, Proto: netpkt.ProtoUDP, Action: fabric.ActionDrop}
	ec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := DecodeSignal(ec)
	if !ok || got.Selector != SelProto || got.Proto != netpkt.ProtoUDP {
		t.Fatalf("proto roundtrip: %+v ok=%v", got, ok)
	}
}

func TestSignalEncodeDecodeCustom(t *testing.T) {
	spec := RuleSpec{Selector: SelCustom, CustomID: 77}
	ec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := DecodeSignal(ec)
	if !ok || got.Selector != SelCustom || got.CustomID != 77 {
		t.Fatalf("custom roundtrip: %+v", got)
	}
}

func TestSignalRejectsForeignCommunities(t *testing.T) {
	rt := bgp.MakeExtCommunity(bgp.ExtTypeTwoOctetAS, bgp.ExtSubTypeRouteTarget, [6]byte{1, 2, 3, 4, 5, 6})
	if _, ok := DecodeSignal(rt); ok {
		t.Fatal("route target decoded as blackholing signal")
	}
	// Unknown selector.
	bad := bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, [6]byte{99, 0, 0, 0, 0, 0})
	if _, ok := DecodeSignal(bad); ok {
		t.Fatal("unknown selector decoded")
	}
	// Shape with zero rate code.
	bad2 := bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, [6]byte{2, 17, 0, 123, 1, 0})
	if _, ok := DecodeSignal(bad2); ok {
		t.Fatal("zero shape rate decoded")
	}
	// Proto selector without proto.
	bad3 := bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, [6]byte{1, 0, 0, 0, 0, 0})
	if _, ok := DecodeSignal(bad3); ok {
		t.Fatal("proto-less SelProto decoded")
	}
}

func TestSignalEncodeErrors(t *testing.T) {
	if _, err := (RuleSpec{Selector: SelUDPSrcPort, Action: fabric.ActionShape, ShapeRateBps: 1}).Encode(); err == nil {
		t.Fatal("sub-unit shape rate encoded")
	}
	if _, err := (RuleSpec{Selector: SelUDPSrcPort, Action: fabric.ActionShape, ShapeRateBps: 1e12}).Encode(); err == nil {
		t.Fatal("oversized shape rate encoded")
	}
}

func TestSignalRoundtripProperty(t *testing.T) {
	f := func(selRaw uint8, port uint16, rateCode uint8, doShape bool) bool {
		sels := []Selector{SelUDPSrcPort, SelUDPDstPort, SelTCPSrcPort, SelTCPDstPort}
		spec := RuleSpec{Selector: sels[int(selRaw)%len(sels)], Port: port, Action: fabric.ActionDrop}
		switch spec.Selector {
		case SelTCPSrcPort, SelTCPDstPort:
			spec.Proto = netpkt.ProtoTCP
		default:
			spec.Proto = netpkt.ProtoUDP
		}
		if doShape {
			if rateCode == 0 {
				rateCode = 1
			}
			spec.Action = fabric.ActionShape
			spec.ShapeRateBps = float64(rateCode) * ShapeRateUnitBps
		}
		ec, err := spec.Encode()
		if err != nil {
			return false
		}
		got, ok := DecodeSignal(ec)
		return ok && got == spec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSignalMatch(t *testing.T) {
	dst := fabric.MatchAll()
	dst.DstIP = victimPrefix
	m := DropUDPSrcPort(123).Match(dst)
	if m.Proto != netpkt.ProtoUDP || m.SrcPort != 123 || m.DstPort != fabric.AnyPort {
		t.Fatalf("match: %+v", m)
	}
	if m.DstIP != victimPrefix {
		t.Fatal("dst prefix lost")
	}
	m2 := RuleSpec{Selector: SelTCPDstPort, Proto: netpkt.ProtoTCP, Port: 80, Action: fabric.ActionDrop}.Match(dst)
	if m2.DstPort != 80 || m2.SrcPort != fabric.AnyPort {
		t.Fatalf("dst-port match: %+v", m2)
	}
	m3 := RuleSpec{Selector: SelProto, Proto: netpkt.ProtoUDP, Action: fabric.ActionDrop}.Match(dst)
	if m3.SrcPort != fabric.AnyPort || m3.Proto != netpkt.ProtoUDP {
		t.Fatalf("proto match: %+v", m3)
	}
}

func TestSignalStrings(t *testing.T) {
	for _, s := range []RuleSpec{
		DropUDPSrcPort(123),
		{Selector: SelUDPSrcPort, Proto: netpkt.ProtoUDP, Port: 53, Action: fabric.ActionShape, ShapeRateBps: 100e6},
		{Selector: SelProto, Proto: netpkt.ProtoUDP, Action: fabric.ActionDrop},
		{Selector: SelCustom, CustomID: 5},
	} {
		if s.String() == "" {
			t.Fatalf("empty string for %+v", s)
		}
	}
}

func TestPortal(t *testing.T) {
	p := NewPortal()
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	id := p.Define("AS64512", m, fabric.ActionDrop, 0)
	if id == 0 {
		t.Fatal("zero rule ID")
	}
	r, err := p.Lookup("AS64512", id)
	if err != nil || r.Action != fabric.ActionDrop {
		t.Fatalf("Lookup: %+v %v", r, err)
	}
	// Authorization boundary: other members cannot reference the rule.
	if _, err := p.Lookup("AS64513", id); err != ErrNoSuchRule {
		t.Fatalf("cross-member lookup: %v", err)
	}
}

// newQoSManager wires a QoS manager over a one-port fabric and a
// four-port router.
func newQoSManager(t *testing.T) *QoSManager {
	t.Helper()
	fab := fabric.New()
	if err := fab.AddPort(fabric.NewPort("AS64512", victimMAC, 1e9)); err != nil {
		t.Fatal(err)
	}
	router := hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(4, hw.RTBHUnitN))
	return NewQoSManager(fab, router, map[string]int{"AS64512": 0})
}

func TestQoSManagerUnknownMember(t *testing.T) {
	mgr := newQoSManager(t)
	err := mgr.Apply(ConfigChange{Op: OpInstall, Member: "ghost", RuleID: "x", Match: fabric.MatchAll()})
	if err == nil {
		t.Fatal("unknown member accepted")
	}
	if err := mgr.Apply(ConfigChange{Op: OpRemove, RuleID: "nope"}); !errors.Is(err, fabric.ErrNoSuchRule) {
		t.Fatalf("remove unknown: %v", err)
	}
}

func TestQoSManagerDuplicateInstall(t *testing.T) {
	mgr := newQoSManager(t)
	c := ConfigChange{Op: OpInstall, Member: "AS64512", RuleID: "r1",
		Match: fabric.MatchAll(), Action: fabric.ActionDrop}
	if err := mgr.Apply(c); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Apply(c); !errors.Is(err, ErrRuleExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if len(mgr.installed) != 1 {
		t.Fatal("count")
	}
}

func TestQoSManagerSetPortIndex(t *testing.T) {
	fab := fabric.New()
	if err := fab.AddPort(fabric.NewPort("late", victimMAC, 1e9)); err != nil {
		t.Fatal(err)
	}
	router := hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(2, 8))
	mgr := NewQoSManager(fab, router, nil)
	c := ConfigChange{Op: OpInstall, Member: "late", RuleID: "r",
		Match: fabric.MatchAll(), Action: fabric.ActionDrop}
	if err := mgr.Apply(c); err == nil {
		t.Fatal("unregistered member accepted")
	}
	mgr.SetPortIndex("late", 0)
	if err := mgr.Apply(c); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Apply(ConfigChange{Op: OpRemove, RuleID: "r"}); err != nil {
		t.Fatal(err)
	}
}

func TestQoSManagerCounters(t *testing.T) {
	fab := fabric.New()
	if err := fab.AddPort(fabric.NewPort("AS64512", victimMAC, 1e9)); err != nil {
		t.Fatal(err)
	}
	mgr := NewQoSManager(fab, hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(2, 8)), map[string]int{"AS64512": 0})
	var src CounterSource = mgr
	m := fabric.MatchAll()
	m.DstIP = victimPrefix
	if err := mgr.Apply(ConfigChange{Op: OpInstall, Member: "AS64512", RuleID: "r",
		Match: DropUDPSrcPort(123).Match(m), Action: fabric.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Counters("r"); err != nil {
		t.Fatalf("telemetry: %v", err)
	}
	if _, err := src.Counters("ghost"); err == nil {
		t.Fatal("ghost rule counters")
	}
}
