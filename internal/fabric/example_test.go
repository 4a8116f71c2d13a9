package fabric_test

import (
	"fmt"
	"net/netip"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// ExamplePort_InstallRule installs an Advanced Blackholing drop rule —
// "discard NTP reflection aimed at the victim /32" — and shows the
// rule the port now holds.
func ExamplePort_InstallRule() {
	port := fabric.NewPort("AS64512", netpkt.MustParseMAC("02:00:00:00:00:01"), 1e9)

	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123 // NTP
	m.DstIP = netip.MustParsePrefix("100.10.10.10/32")
	rule := &fabric.Rule{ID: "drop-ntp", Match: m, Action: fabric.ActionDrop}

	if err := port.InstallRule(rule); err != nil {
		fmt.Println("install failed:", err)
		return
	}
	installed, err := port.Rule("drop-ntp")
	if err != nil {
		fmt.Println("lookup failed:", err)
		return
	}
	fmt.Println(installed)
	// Output:
	// rule drop-ntp: match(proto=UDP,dst=100.10.10.10/32,src-port=123) -> drop
}

// ExamplePort_ClassifyHashed classifies two flows against an installed
// rule set: the attack flow hits the drop rule, benign web traffic falls
// through to the default forwarding queue (nil). The second argument
// is ignored.
func ExamplePort_ClassifyHashed() {
	port := fabric.NewPort("AS64512", netpkt.MustParseMAC("02:00:00:00:00:01"), 1e9)
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if err := port.InstallRule(&fabric.Rule{ID: "drop-ntp", Match: m, Action: fabric.ActionDrop}); err != nil {
		fmt.Println("install failed:", err)
		return
	}

	attack := netpkt.FlowKey{
		SrcMAC: netpkt.MustParseMAC("02:00:00:00:00:02"),
		Src:    netip.MustParseAddr("198.51.100.1"),
		Dst:    netip.MustParseAddr("100.10.10.10"),
		Proto:  netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
	}
	web := attack
	web.Proto = netpkt.ProtoTCP
	web.SrcPort = 50000

	if r := port.ClassifyHashed(&attack, struct{}{}); r != nil {
		fmt.Println("attack flow ->", r.ID)
	}
	if r := port.ClassifyHashed(&web, struct{}{}); r == nil {
		fmt.Println("web flow -> default forwarding queue")
	}
	// Output:
	// attack flow -> drop-ntp
	// web flow -> default forwarding queue
}

// ExampleFabric_Tick runs one flow-level egress tick: a 2 Gbps NTP
// flood and a 400 Mbps web service offered to a 1 Gbps member port
// with the attack signature dropped — benign traffic survives intact.
// The sink's visitor receives the port's delivered flows as one batch.
func ExampleFabric_Tick() {
	port := fabric.NewPort("AS64512", netpkt.MustParseMAC("02:00:00:00:00:01"), 1e9)
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if err := port.InstallRule(&fabric.Rule{ID: "drop-ntp", Match: m, Action: fabric.ActionDrop}); err != nil {
		fmt.Println("install failed:", err)
		return
	}
	fab := fabric.New()
	if err := fab.AddPort(port); err != nil {
		fmt.Println("add port failed:", err)
		return
	}

	peer := netpkt.MustParseMAC("02:00:00:00:00:02")
	victim := netip.MustParseAddr("100.10.10.10")
	attack := netpkt.FlowKey{SrcMAC: peer, Src: netip.MustParseAddr("198.51.100.1"),
		Dst: victim, Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	web := netpkt.FlowKey{SrcMAC: peer, Src: netip.MustParseAddr("198.51.100.2"),
		Dst: victim, Proto: netpkt.ProtoTCP, SrcPort: 50443, DstPort: 443}

	offers := fabric.TickOffers{"AS64512": {
		{Flow: &attack, Bytes: 250e6, Packets: 5e5}, // 2 Gbit in 1 s
		{Flow: &web, Bytes: 50e6, Packets: 5e4},     // 400 Mbit in 1 s
	}}
	stats, err := fab.Tick(nil, offers, 1.0, func(worker int, port string) fabric.FlowVisitor {
		return func(delivered []fabric.Delivery) {
			for _, d := range delivered {
				fmt.Printf("%s: %.0f Mbit\n", d.Offer.Flow, d.Bytes*8/1e6)
			}
		}
	})
	if err != nil {
		fmt.Println("tick failed:", err)
		return
	}
	res := stats.PerPort["AS64512"]
	fmt.Printf("delivered:    %.0f Mbit\n", res.DeliveredBytes*8/1e6)
	fmt.Printf("rule-dropped: %.0f Mbit\n", res.RuleDroppedBytes*8/1e6)
	fmt.Printf("congestion:   %.0f Mbit\n", res.CongestionDroppedBytes*8/1e6)
	// Output:
	// TCP 198.51.100.2:50443 -> 100.10.10.10:443: 400 Mbit
	// delivered:    400 Mbit
	// rule-dropped: 2000 Mbit
	// congestion:   0 Mbit
}
