package fabric

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"stellar/internal/netpkt"
)

var (
	macVictim = netpkt.MustParseMAC("02:00:00:00:00:01")
	macPeerA  = netpkt.MustParseMAC("02:00:00:00:00:02")
	macPeerB  = netpkt.MustParseMAC("02:00:00:00:00:03")
	victimIP  = netip.MustParseAddr("100.10.10.10")
	srcIPA    = netip.MustParseAddr("198.51.100.1")
	srcIPB    = netip.MustParseAddr("198.51.100.2")
)

func udpFlow(srcMAC netpkt.MAC, src netip.Addr, srcPort uint16) netpkt.FlowKey {
	return netpkt.FlowKey{SrcMAC: srcMAC, Src: src, Dst: victimIP,
		Proto: netpkt.ProtoUDP, SrcPort: srcPort, DstPort: 443}
}

func tcpFlow(srcMAC netpkt.MAC, src netip.Addr, dstPort uint16) netpkt.FlowKey {
	return netpkt.FlowKey{SrcMAC: srcMAC, Src: src, Dst: victimIP,
		Proto: netpkt.ProtoTCP, SrcPort: 50000, DstPort: dstPort}
}

func TestMatchWildcards(t *testing.T) {
	f := udpFlow(macPeerA, srcIPA, 123)
	if !MatchAll().Matches(f) {
		t.Fatal("MatchAll must match everything")
	}
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if !m.Matches(f) {
		t.Fatal("udp/123 must match")
	}
	m.SrcPort = 53
	if m.Matches(f) {
		t.Fatal("port 53 must not match 123")
	}
	m = MatchAll()
	m.DstIP = netip.MustParsePrefix("100.10.10.10/32")
	if !m.Matches(f) {
		t.Fatal("dst /32 must match")
	}
	m.DstIP = netip.MustParsePrefix("100.10.10.0/31")
	if m.Matches(f) {
		t.Fatal("non-covering dst must not match")
	}
	m = MatchAll()
	m.SrcMAC = &macPeerB
	if m.Matches(f) {
		t.Fatal("wrong MAC must not match")
	}
}

func TestMatchPortZeroIsReal(t *testing.T) {
	// UDP source port 0 is the top blackholed port (Fig 3a); the wildcard
	// must not swallow it.
	m := MatchAll()
	m.SrcPort = 0
	if m.Matches(udpFlow(macPeerA, srcIPA, 123)) {
		t.Fatal("port-0 match matched port 123")
	}
	if !m.Matches(udpFlow(macPeerA, srcIPA, 0)) {
		t.Fatal("port-0 match missed port 0")
	}
}

func TestCriteriaCount(t *testing.T) {
	m := MatchAll()
	if mac, l34 := m.CriteriaCount(); mac != 0 || l34 != 0 {
		t.Fatalf("MatchAll criteria: %d %d", mac, l34)
	}
	m.SrcMAC = &macPeerA
	m.Proto = netpkt.ProtoUDP
	m.DstIP = netip.MustParsePrefix("100.10.10.10/32")
	m.SrcPort = 123
	if mac, l34 := m.CriteriaCount(); mac != 1 || l34 != 3 {
		t.Fatalf("criteria: mac=%d l34=%d, want 1, 3", mac, l34)
	}
}

func TestMatchString(t *testing.T) {
	if MatchAll().String() != "any" {
		t.Fatal("MatchAll string")
	}
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if m.String() == "" || m.String() == "any" {
		t.Fatalf("String: %q", m.String())
	}
}

func newVictimPort() *Port {
	return NewPort("victim", macVictim, 1e9) // 1 Gbps member port
}

// sumByFlow returns a visitor that adds each delivery to m: the per-flow
// view of a tick, for tests that ask what one flow got.
func sumByFlow(m map[netpkt.FlowKey]float64) FlowVisitor {
	return func(f netpkt.FlowKey, _ uint64, bytes float64) { m[f] += bytes }
}

func dropNTPRule() *Rule {
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	m.DstIP = netip.MustParsePrefix("100.10.10.10/32")
	return &Rule{ID: "drop-ntp", Match: m, Action: ActionDrop}
}

func TestRuleManagement(t *testing.T) {
	p := newVictimPort()
	r := dropNTPRule()
	if err := p.InstallRule(r); err != nil {
		t.Fatal(err)
	}
	if err := p.InstallRule(dropNTPRule()); err != ErrDuplicateRule {
		t.Fatalf("duplicate: %v", err)
	}
	if got, err := p.Rule("drop-ntp"); err != nil || got != r {
		t.Fatalf("Rule: %v %v", got, err)
	}
	if p.RuleCount() != 1 {
		t.Fatal("RuleCount")
	}
	if err := p.RemoveRule("drop-ntp"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveRule("drop-ntp"); err != ErrNoSuchRule {
		t.Fatalf("remove twice: %v", err)
	}
	if _, err := p.Rule("nope"); err != ErrNoSuchRule {
		t.Fatalf("missing rule: %v", err)
	}
}

func TestEgressDropQueue(t *testing.T) {
	p := newVictimPort()
	if err := p.InstallRule(dropNTPRule()); err != nil {
		t.Fatal(err)
	}
	offers := []Offer{
		{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 1e6, Packets: 1000}, // NTP attack
		{Flow: tcpFlow(macPeerB, srcIPB, 443), Bytes: 5e5, Packets: 500},  // benign web
	}
	res := p.Egress(offers, 1.0, nil)
	if res.RuleDroppedBytes != 1e6 {
		t.Fatalf("rule-dropped: %v", res.RuleDroppedBytes)
	}
	if res.DeliveredBytes != 5e5 {
		t.Fatalf("delivered: %v", res.DeliveredBytes)
	}
	// Telemetry counters reflect the drop.
	r, _ := p.Rule("drop-ntp")
	cs := r.Counters().Snapshot()
	if cs.MatchedBytes != 1e6 || cs.DroppedBytes != 1e6 || cs.ForwardedBytes != 0 {
		t.Fatalf("counters: %+v", cs)
	}
}

func TestEgressShapeQueue(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	shape := &Rule{ID: "shape-ntp", Match: m, Action: ActionShape, ShapeRateBps: 200e6}
	if err := p.InstallRule(shape); err != nil {
		t.Fatal(err)
	}
	// Offer 1 Gbps of NTP for 1 s; exactly 200 Mbit may pass per tick —
	// the bucket holds at most a 1 s burst, and the refill is clamped to
	// that burst before consumption.
	attack := Offer{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 125e6, Packets: 1e5} // 1 Gbit
	res1 := p.Egress([]Offer{attack}, 1.0, nil)
	want1 := 25e6 // 200 Mbit = 25 MB
	if math.Abs(res1.DeliveredBytes-want1) > 1 {
		t.Fatalf("tick1 delivered %v, want %v (clamped burst)", res1.DeliveredBytes, want1)
	}
	res2 := p.Egress([]Offer{attack}, 1.0, nil)
	want2 := 25e6 // 200 Mbit steady state
	if math.Abs(res2.DeliveredBytes-want2) > 1 {
		t.Fatalf("tick2 delivered %v, want %v (steady state)", res2.DeliveredBytes, want2)
	}
	if math.Abs(res2.ShaperDroppedBytes-(125e6-25e6)) > 1 {
		t.Fatalf("shaper drop: %v", res2.ShaperDroppedBytes)
	}
	// The shaped residue is the telemetry signal.
	cs := shape.Counters().Snapshot()
	if cs.ShapedResidue <= 0 {
		t.Fatal("no shaped residue recorded")
	}
}

func TestEgressCongestionSharedFate(t *testing.T) {
	// No rules: a 2 Gbps offered load on a 1 Gbps port loses half of
	// every flow — the collateral-damage mechanism of Section 2.2.
	p := newVictimPort()
	attack := Offer{Flow: udpFlow(macPeerA, srcIPA, 11211), Bytes: 187.5e6, Packets: 1e5} // 1.5 Gbit
	web := Offer{Flow: tcpFlow(macPeerB, srcIPB, 443), Bytes: 62.5e6, Packets: 5e4}       // 0.5 Gbit
	byFlow := make(map[netpkt.FlowKey]float64)
	res := p.Egress([]Offer{attack, web}, 1.0, sumByFlow(byFlow))
	capBytes := 1e9 / 8.0
	if math.Abs(res.DeliveredBytes-capBytes) > 1 {
		t.Fatalf("delivered %v, want capacity %v", res.DeliveredBytes, capBytes)
	}
	frac := capBytes / (187.5e6 + 62.5e6)
	if got := byFlow[web.Flow]; math.Abs(got-web.Bytes*frac) > 1 {
		t.Fatalf("web delivered %v, want %v (proportional)", got, web.Bytes*frac)
	}
	if res.CongestionDroppedBytes <= 0 {
		t.Fatal("no congestion drop recorded")
	}
}

func TestEgressDropRestoresBenign(t *testing.T) {
	// Section 5.2's functional check: with the attack dropped by rule,
	// benign traffic passes untouched despite the attack exceeding the
	// port capacity.
	p := newVictimPort()
	if err := p.InstallRule(dropNTPRule()); err != nil {
		t.Fatal(err)
	}
	attack := Offer{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 1.25e9, Packets: 1e6} // 10 Gbit
	web := Offer{Flow: tcpFlow(macPeerB, srcIPB, 443), Bytes: 62.5e6, Packets: 5e4}
	byFlow := make(map[netpkt.FlowKey]float64)
	res := p.Egress([]Offer{attack, web}, 1.0, sumByFlow(byFlow))
	if got := byFlow[web.Flow]; math.Abs(got-web.Bytes) > 1 {
		t.Fatalf("benign delivered %v, want full %v", got, web.Bytes)
	}
	if res.CongestionDroppedBytes != 0 {
		t.Fatalf("congestion drop with attack filtered: %v", res.CongestionDroppedBytes)
	}
}

func TestEgressFirstMatchWins(t *testing.T) {
	p := newVictimPort()
	mSpecific := MatchAll()
	mSpecific.Proto = netpkt.ProtoUDP
	mSpecific.SrcPort = 123
	mWide := MatchAll()
	mWide.Proto = netpkt.ProtoUDP
	if err := p.InstallRule(&Rule{ID: "fwd-ntp", Match: mSpecific, Action: ActionForward}); err != nil {
		t.Fatal(err)
	}
	if err := p.InstallRule(&Rule{ID: "drop-udp", Match: mWide, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	ntp := Offer{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 100, Packets: 1}
	dns := Offer{Flow: udpFlow(macPeerA, srcIPA, 53), Bytes: 100, Packets: 1}
	res := p.Egress([]Offer{ntp, dns}, 1.0, nil)
	if res.DeliveredBytes != 100 || res.RuleDroppedBytes != 100 {
		t.Fatalf("first-match: delivered=%v dropped=%v", res.DeliveredBytes, res.RuleDroppedBytes)
	}
}

func TestFabricPortTable(t *testing.T) {
	f := New()
	victim := newVictimPort()
	if err := f.AddPort(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPort(NewPort("peerA", macPeerA, 10e9)); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPort(newVictimPort()); err != ErrDuplicatePort {
		t.Fatalf("dup: %v", err)
	}
	if _, err := f.PortByName("victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PortByMAC(macPeerA); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PortByName("ghost"); err != ErrNoSuchPort {
		t.Fatalf("ghost: %v", err)
	}
	if got := f.Ports(); len(got) != 2 || got[0].Name != "peerA" {
		t.Fatalf("Ports: %v", got)
	}
}

func TestFabricTick(t *testing.T) {
	f := New()
	if err := f.AddPort(newVictimPort()); err != nil {
		t.Fatal(err)
	}
	offers := TickOffers{
		"victim": {
			{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 1000, Packets: 2},
		},
	}
	stats, err := f.Tick(nil, offers, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalDeliveredBytes() != 1000 || stats.PlatformOfferedBytes != 1000 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, err := f.Tick(nil, TickOffers{"ghost": {{Bytes: 1}}}, 1.0, nil); err == nil {
		t.Fatal("tick to unknown port accepted")
	}
}

func TestFabricPlatformCapacity(t *testing.T) {
	f := New()
	f.PlatformCapacityBps = 800 // 100 bytes/s
	if err := f.AddPort(NewPort("v", macVictim, 1e12)); err != nil {
		t.Fatal(err)
	}
	offers := TickOffers{"v": {{Flow: udpFlow(macPeerA, srcIPA, 1), Bytes: 400, Packets: 1}}}
	stats, err := f.Tick(nil, offers, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.PlatformDroppedBytes-300) > 1e-9 {
		t.Fatalf("platform drop: %v", stats.PlatformDroppedBytes)
	}
	if math.Abs(stats.TotalDeliveredBytes()-100) > 1e-9 {
		t.Fatalf("delivered: %v", stats.TotalDeliveredBytes())
	}
}

func TestEgressConservationProperty(t *testing.T) {
	// Property: bytes offered == delivered + dropped (all causes), for
	// arbitrary offered loads and shaping rates.
	f := func(loads []uint32, shapeRate uint32, capacity uint32) bool {
		p := NewPort("x", macVictim, float64(capacity%1000000+1000))
		m := MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = 123
		_ = p.InstallRule(&Rule{ID: "s", Match: m, Action: ActionShape,
			ShapeRateBps: float64(shapeRate % 100000)})
		var offers []Offer
		var total float64
		for i, l := range loads {
			if i > 20 {
				break
			}
			b := float64(l % 1000000)
			port := uint16(123)
			if i%2 == 0 {
				port = 443
			}
			offers = append(offers, Offer{Flow: udpFlow(macPeerA, srcIPA, port), Bytes: b, Packets: 1})
			total += b
		}
		res := p.Egress(offers, 1.0, nil)
		return math.Abs(res.OfferedBytes()-total) < 1e-6*math.Max(total, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestActionStrings(t *testing.T) {
	if ActionForward.String() != "forward" || ActionShape.String() != "shape" || ActionDrop.String() != "drop" {
		t.Fatal("action strings")
	}
	r := dropNTPRule()
	if r.String() == "" {
		t.Fatal("rule string")
	}
}

func BenchmarkClassify(b *testing.B) {
	p := newVictimPort()
	for i := 0; i < 16; i++ {
		m := MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = int32(i)
		_ = p.InstallRule(&Rule{ID: string(rune('a' + i)), Match: m, Action: ActionDrop})
	}
	f := udpFlow(macPeerA, srcIPA, 9999) // no match: full scan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Classify(f)
	}
}

// benchShapes are one port of the repository benchmark's workloads:
// a victim port of attack_mitigated (13 500 flows under one drop rule, a
// tenth of them benign) and a member port of wire_signal (256 flows
// under 16 standing rules).
var benchShapes = []struct {
	name         string
	flows, rules int
}{
	{"flows=13500/rules=1", 13500, 1},
	{"flows=256/rules=16", 256, 16},
}

// benchPort builds a port with n drop rules on UDP source ports and
// offers of which nine in ten hit the first rule.
func benchPort(b *testing.B, flows, rules int) (*Port, []Offer) {
	p := newVictimPort()
	for i := 0; i < rules; i++ {
		m := MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = int32(123 + i)
		if err := p.InstallRule(&Rule{ID: fmt.Sprintf("drop-%d", i), Match: m, Action: ActionDrop}); err != nil {
			b.Fatal(err)
		}
	}
	offers := make([]Offer, flows)
	for i := range offers {
		f := udpFlow(macPeerA, netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), 123)
		if i%10 == 0 {
			f = tcpFlow(macPeerB, f.Src, 443)
		}
		offers[i] = Offer{Flow: f, FlowHash: f.Hash(), Bytes: 1e4, Packets: 10}
	}
	return p, offers
}

var benchTick TickResult

// BenchmarkEgressTick is the steady-state tick: every flow's verdict is
// in the port's memo.
func BenchmarkEgressTick(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			p, offers := benchPort(b, s.flows, s.rules)
			p.Egress(offers, 1, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTick = p.Egress(offers, 1, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.flows), "ns/flow")
		})
	}
}

// BenchmarkEgressTickAfterRuleChange is the tick a mitigation lands
// on: the first pass over a warm port after one InstallRule or
// RemoveRule (alternately; the rule change itself is not timed).
func BenchmarkEgressTickAfterRuleChange(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			p, offers := benchPort(b, s.flows, s.rules)
			p.Egress(offers, 1, nil)
			m := MatchAll()
			m.Proto = netpkt.ProtoTCP
			m.DstPort = 443
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var err error
				if i%2 == 0 {
					err = p.InstallRule(&Rule{ID: "churn", Match: m, Action: ActionDrop})
				} else {
					err = p.RemoveRule("churn")
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				benchTick = p.Egress(offers, 1, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.flows), "ns/flow")
		})
	}
}
