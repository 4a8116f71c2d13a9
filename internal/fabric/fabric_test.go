package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"unsafe"

	"stellar/internal/hw"
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

func udpFlow(srcMAC netpkt.MAC, src netip.Addr, srcPort uint16) *netpkt.FlowKey {
	return &netpkt.FlowKey{SrcMAC: srcMAC, Src: src, Dst: victimIP,
		Proto: netpkt.ProtoUDP, SrcPort: srcPort, DstPort: 443}
}

func tcpFlow(srcMAC netpkt.MAC, src netip.Addr, dstPort uint16) *netpkt.FlowKey {
	return &netpkt.FlowKey{SrcMAC: srcMAC, Src: src, Dst: victimIP,
		Proto: netpkt.ProtoTCP, SrcPort: 50000, DstPort: dstPort}
}

// TestOfferSize pins an Offer at 24 bytes on 64-bit platforms: the key
// stays in its producer's flow table and the offer only points at it,
// so generating a tick's offers copies no 64-byte netpkt.FlowKey, and
// the FlowHash name takes no space.
// tickByName ticks f over offers through a fresh batch and returns each
// port's result by name.
func tickByName(f *Fabric, r Runner, offers TickOffers, dt float64, sink TickSink) (map[string]TickResult, error) {
	var b TickBatch
	b.Load(offers)
	if err := f.Tick(r, &b, dt, sink); err != nil {
		return nil, err
	}
	out := make(map[string]TickResult, len(b.Names))
	for i, name := range b.Names {
		out[name] = b.Results[i]
	}
	return out, nil
}

func TestOfferSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Offer{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Offer{}) = %d, want 24", got)
	}
}

func TestMatchWildcards(t *testing.T) {
	f := udpFlow(macPeerA, srcIPA, 123)
	all := MatchAll()
	if !all.Matches(f) {
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
	return func(ds []Delivery) {
		for _, d := range ds {
			m[*d.Offer.Flow] += d.Bytes
		}
	}
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
	if len(p.cls.Load().rules) != 1 {
		t.Fatal("rule count")
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

var portSink *Port

// TestNewPortAllocations: a rule-free port has no positions (every
// rule-free port shares one classifier), so a member population of
// thousands costs one allocation per port.
func TestNewPortAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { portSink = NewPort("AS64512", macVictim, 1e9) }); got > 1 {
		t.Fatalf("NewPort: %v allocations, want 1", got)
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
	res := p.egress(offers, 1.0, nil)
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
	res1 := p.egress([]Offer{attack}, 1.0, nil)
	want1 := 25e6 // 200 Mbit = 25 MB
	if math.Abs(res1.DeliveredBytes-want1) > 1 {
		t.Fatalf("tick1 delivered %v, want %v (clamped burst)", res1.DeliveredBytes, want1)
	}
	res2 := p.egress([]Offer{attack}, 1.0, nil)
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
	res := p.egress([]Offer{attack, web}, 1.0, sumByFlow(byFlow))
	capBytes := 1e9 / 8.0
	if math.Abs(res.DeliveredBytes-capBytes) > 1 {
		t.Fatalf("delivered %v, want capacity %v", res.DeliveredBytes, capBytes)
	}
	frac := capBytes / (187.5e6 + 62.5e6)
	if got := byFlow[*web.Flow]; math.Abs(got-web.Bytes*frac) > 1 {
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
	res := p.egress([]Offer{attack, web}, 1.0, sumByFlow(byFlow))
	if got := byFlow[*web.Flow]; math.Abs(got-web.Bytes) > 1 {
		t.Fatalf("benign delivered %v, want full %v", got, web.Bytes)
	}
	if res.CongestionDroppedBytes != 0 {
		t.Fatalf("congestion drop with attack filtered: %v", res.CongestionDroppedBytes)
	}
}

// TestUncongestedEgressMatchesScalingPass pins the forward-queue
// shortcut to the scaling pass it skips. The reference egress runs a
// twin port of unbounded capacity, whose forward queue leaves the
// capacity stage with the bytes it entered, and then always runs the
// scaling pass on that queue at the real capacity. Offers hit drop,
// shape and forward rules or none; byte counts include NaN, ±Inf and
// −0; each tick's capacity puts the forward total below, exactly at or
// above it, or is 0, +Inf or NaN. The TickResult and the delivered
// batch must equal the reference bit for bit.
func TestUncongestedEgressMatchesScalingPass(t *testing.T) {
	rules := func() []*Rule {
		drop, shape, fwd := MatchAll(), MatchAll(), MatchAll()
		drop.Proto, drop.SrcPort = netpkt.ProtoUDP, 123
		shape.Proto, shape.SrcPort = netpkt.ProtoUDP, 53
		fwd.Proto, fwd.DstPort = netpkt.ProtoTCP, 80
		return []*Rule{
			{ID: "drop", Match: drop, Action: ActionDrop},
			{ID: "shape", Match: shape, Action: ActionShape, ShapeRateBps: 8e6},
			{ID: "fwd", Match: fwd, Action: ActionForward},
		}
	}
	port := func(capacity float64) *Port {
		p := NewPort("victim", macVictim, capacity)
		for _, r := range rules() {
			if err := p.InstallRule(r); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	flows := []*netpkt.FlowKey{
		udpFlow(macPeerA, srcIPA, 123), udpFlow(macPeerA, srcIPA, 53),
		tcpFlow(macPeerB, srcIPB, 80), tcpFlow(macPeerB, srcIPB, 443),
	}
	finite := []float64{0, math.Copysign(0, -1), 1500, 3.7, 1e6, 2.5e6, 1e-300, -5}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	capModes := []string{"below", "at", "above", "zero", "inf", "nan"}
	var batch []Delivery
	keep := func(d []Delivery) { batch = append(batch[:0], d...) }
	bits := func(r TickResult) [5]uint64 {
		return [5]uint64{math.Float64bits(r.PresentedBytes), math.Float64bits(r.DeliveredBytes),
			math.Float64bits(r.RuleDroppedBytes), math.Float64bits(r.ShaperDroppedBytes),
			math.Float64bits(r.CongestionDroppedBytes)}
	}
	ran := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		twin, p := port(math.Inf(1)), port(0)
		for tick := 0; tick < 500; tick++ {
			offers := make([]Offer, rng.Intn(12))
			for i := range offers {
				b := finite[rng.Intn(len(finite))]
				if rng.Intn(20) == 0 {
					b = special[rng.Intn(len(special))]
				}
				offers[i] = Offer{Flow: flows[rng.Intn(len(flows))], Bytes: b, Packets: 1}
			}
			want := twin.egress(offers, 1, keep)
			queue := append([]Delivery(nil), batch...)
			var total float64
			for _, d := range queue {
				total += d.Bytes
			}
			mode := capModes[rng.Intn(len(capModes))]
			switch mode {
			case "below":
				p.CapacityBps = total * 8 / 2
			case "at":
				p.CapacityBps = total * 8
			case "above":
				p.CapacityBps = total * 8 * 2
			case "zero":
				p.CapacityBps = 0
			case "inf":
				p.CapacityBps = math.Inf(1)
			case "nan":
				p.CapacityBps = math.NaN()
			}
			// The scaling pass, run whatever the total.
			capBytes := p.CapacityBps / 8
			frac := 1.0
			if total > capBytes && total > 0 {
				frac = capBytes / total
			}
			want.DeliveredBytes, want.CongestionDroppedBytes = 0, 0
			for i := range queue {
				d := &queue[i]
				delivered := d.Bytes * frac
				want.DeliveredBytes += delivered
				want.CongestionDroppedBytes += d.Bytes - delivered
				d.Bytes = delivered
			}
			got := p.egress(offers, 1, keep)
			if bits(got) != bits(want) {
				t.Fatalf("seed %d tick %d (capacity %s, total %v): TickResult %+v, want %+v", seed, tick, mode, total, got, want)
			}
			if len(batch) != len(queue) {
				t.Fatalf("seed %d tick %d: %d deliveries, want %d", seed, tick, len(batch), len(queue))
			}
			for i := range queue {
				if batch[i].Offer != queue[i].Offer || math.Float64bits(batch[i].Bytes) != math.Float64bits(queue[i].Bytes) {
					t.Fatalf("seed %d tick %d: delivery %d = {%p %v}, want {%p %v}", seed, tick, i, batch[i].Offer, batch[i].Bytes, queue[i].Offer, queue[i].Bytes)
				}
			}
			switch {
			case math.IsNaN(total) || math.IsInf(total, 0):
				ran["non-finite total"]++
			case total <= capBytes:
				ran["fits"]++
			default:
				ran["congested"]++
			}
		}
	}
	for _, k := range []string{"fits", "congested", "non-finite total"} {
		if ran[k] == 0 {
			t.Fatalf("no tick with a %s forward queue (%v)", k, ran)
		}
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
	res := p.egress([]Offer{ntp, dns}, 1.0, nil)
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
	if _, err := f.PortByName("ghost"); err != ErrNoSuchPort {
		t.Fatalf("ghost: %v", err)
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
	stats, err := tickByName(f, nil, offers, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats["victim"].DeliveredBytes != 1000 || stats["victim"].PresentedBytes != 1000 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, err := tickByName(f, nil, TickOffers{"ghost": {{Bytes: 1}}}, 1.0, nil); err == nil {
		t.Fatal("tick to unknown port accepted")
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
		res := p.egress(offers, 1.0, nil)
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

// BenchmarkClassify times the scan a position miss or an old stamp
// runs: a flow no rule matches, so the scan visits every rule. Rules is
// 1, hw.RTBHUnitN (the paper's 95th-percentile RTBH rule count) and
// the per-port QoS-policy cap hardware admission allows at that N.
func BenchmarkClassify(b *testing.B) {
	for _, n := range []int{1, hw.RTBHUnitN, rtbhQoSCap} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			p := newVictimPort()
			for i := 0; i < n; i++ {
				m := MatchAll()
				m.Proto = netpkt.ProtoUDP
				m.SrcPort = int32(i)
				if err := p.InstallRule(&Rule{ID: fmt.Sprintf("r%d", i), Match: m, Action: ActionDrop}); err != nil {
					b.Fatal(err)
				}
			}
			cls := p.cls.Load()
			f := udpFlow(macPeerA, srcIPA, 9999) // no match: full scan
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchVerdict = cls.classify(f)
			}
		})
	}
}

var benchVerdict *verdict

// benchShapes are one port of the repository benchmark's workloads:
// a victim port of attack_mitigated (13 500 flows under one drop rule, a
// tenth of them benign) and a member port of wire_signal (256 flows
// under 16 standing rules), where the attack hits the first rule; and
// the worst case, that victim port at the per-port QoS-policy cap
// hardware admission allows at hw.RTBHUnitN (128 rules) with the attack
// hitting the last, so a scan of any offer visits every rule.
var benchShapes = []struct {
	name              string
	flows, rules, hit int
}{
	{"flows=13500/rules=1", 13500, 1, 0},
	{"flows=256/rules=16", 256, 16, 0},
	{"flows=13500/rules=128", 13500, rtbhQoSCap, rtbhQoSCap - 1},
}

// rtbhQoSCap is the per-port QoS-policy cap at hw.RTBHUnitN.
var rtbhQoSCap = hw.DefaultEdgeRouterLimits(1, hw.RTBHUnitN).QoSPoliciesPerPort

// benchPort builds a port with rules drop rules on UDP source ports and
// offers of which nine in ten hit rule number hit.
func benchPort(b *testing.B, flows, rules, hit int) (*Port, []Offer) {
	p := newVictimPort()
	for i := 0; i < rules; i++ {
		m := MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = int32(123 + (i-hit+rules)%rules)
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
		offers[i] = Offer{Flow: f, Bytes: 1e4, Packets: 10}
	}
	return p, offers
}

var benchTick TickResult

// BenchmarkEgressTick is the steady-state tick: every offer meets its
// key pointer and a current verdict at its position.
func BenchmarkEgressTick(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			p, offers := benchPort(b, s.flows, s.rules, s.hit)
			p.egress(offers, 1, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTick = p.egress(offers, 1, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.flows), "ns/flow")
		})
	}
}

// BenchmarkEgressTickReordered is the steady-state tick of a producer
// whose offer order never repeats: ticks alternate between two orders
// one position apart, so no offer meets its own key pointer at its
// position and each one is scanned.
func BenchmarkEgressTickReordered(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			p, offers := benchPort(b, s.flows, s.rules, s.hit)
			orders := [2][]Offer{offers, append(offers[1:len(offers):len(offers)], offers[0])}
			p.egress(orders[1], 1, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTick = p.egress(orders[i%2], 1, nil)
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
			p, offers := benchPort(b, s.flows, s.rules, s.hit)
			p.egress(offers, 1, nil)
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
				benchTick = p.egress(offers, 1, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.flows), "ns/flow")
		})
	}
}
