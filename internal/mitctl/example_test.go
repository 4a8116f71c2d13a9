package mitctl_test

import (
	"fmt"
	"net/netip"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/irr"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
)

// ExampleController walks the full mitigation lifecycle: a member
// declares a Spec (drop NTP reflection toward its /32 for 60 s), the
// controller validates it against the IRR, paces the install through
// the change queue, reports per-mitigation telemetry, and expires it
// when the TTL runs out — every transition visible on the event stream.
func ExampleController() {
	// Data plane: the victim's 1 Gbps port behind a QoS manager.
	fab := fabric.New()
	victimMAC := netpkt.MAC{0x02, 0, 0, 0, 0, 1}
	fab.AddPort(fabric.NewPort("AS64512", victimMAC, 1e9))
	router := hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(1, hw.RTBHUnitN))
	mgr := core.NewQoSManager(fab, router, map[string]int{"AS64512": 0})

	// Control plane: the victim registered 100.10.10.0/24 in the IRR.
	registry := irr.NewRegistry()
	registry.Register(64512, netip.MustParsePrefix("100.10.10.0/24"))
	ctl := mitctl.New(mitctl.Config{
		Manager:   mgr,
		QueueRate: 1000, QueueBurst: 1000,
		Validator: &mitctl.IRRValidator{
			Registry: registry,
			ASNOf:    func(string) (uint32, bool) { return 64512, true },
		},
	})
	ctl.Subscribe(func(ev mitctl.Event) {
		fmt.Printf("t=%g %s %s\n", ev.Time, ev.Mitigation.ID, ev.Type)
	})

	// Declare the mitigation: drop UDP/123 toward the attacked /32.
	match := fabric.MatchAll()
	match.Proto = netpkt.ProtoUDP
	match.SrcPort = 123
	spec := mitctl.Spec{
		Requester: "AS64512",
		Target:    netip.MustParsePrefix("100.10.10.10/32"),
		Match:     match,
		Action:    fabric.ActionDrop,
		TTL:       60,
	}
	m, err := ctl.Request(spec, 0)
	if err != nil {
		fmt.Println("request:", err)
		return
	}

	// The tick loop drives the queue and the TTL clock.
	ctl.Process(1)

	// Attack traffic hits the installed rule; the mitigation's tagged
	// counters aggregate its effect.
	port, _ := fab.PortByName("AS64512")
	port.Egress([]fabric.Offer{{
		Flow: netpkt.FlowKey{
			SrcMAC: netpkt.MAC{0x02, 0xff, 0, 0, 0, 9},
			Src:    netip.MustParseAddr("198.51.100.9"),
			Dst:    netip.MustParseAddr("100.10.10.10"),
			Proto:  netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
		},
		Bytes: 5e6, Packets: 5000,
	}}, 1, nil)
	usage, _ := ctl.Usage(m.ID)
	fmt.Printf("dropped %.0f MB\n", float64(usage.DroppedBytes)/1e6)

	// The TTL clock expires the mitigation; the rule is removed.
	ctl.Process(61)
	final, _ := ctl.Get(m.ID)
	fmt.Printf("rules left: %d, state %s\n", port.RuleCount(), final.State)
	// Output:
	// t=0 mit:AS64512:100.10.10.10/32:7e959b48 requested
	// t=0 mit:AS64512:100.10.10.10/32:7e959b48 validated
	// t=1 mit:AS64512:100.10.10.10/32:7e959b48 installed
	// dropped 5 MB
	// t=61 mit:AS64512:100.10.10.10/32:7e959b48 expired
	// rules left: 0, state expired
}
