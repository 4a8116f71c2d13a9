// Package integration wires the substrates together across real process
// boundaries: BGP sessions over net.Pipe and TCP, the route server's
// controller feed serialized as iBGP+ADD-PATH UPDATEs, and the full
// member-to-data-plane mitigation path.
package integration

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgpsession"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/irr"
	"stellar/internal/mitigation"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
)

const ixpASN = 6695

var (
	bhNextHop = netip.MustParseAddr("80.81.193.66")
	victimIP  = netip.MustParseAddr("100.10.10.10")
	victimPfx = netip.MustParsePrefix("100.10.10.0/24")
	hostPfx   = netip.MustParsePrefix("100.10.10.10/32")
	victimMAC = netpkt.MustParseMAC("02:00:00:00:00:01")
)

// wireStellar runs the controller end of the iBGP+ADD-PATH session:
// each received UPDATE is decoded into controller events and fed to
// Stellar, exactly as the production deployment consumes the route
// server's southbound stream.
type wireStellar struct {
	st   *core.Stellar
	mu   sync.Mutex
	now  float64
	seen chan struct{}
}

func (w *wireStellar) handle(e bgpsession.Event) {
	if e.Update == nil {
		return
	}
	w.mu.Lock()
	w.now += 1
	now := w.now
	w.mu.Unlock()
	w.st.HandleEvents(core.EventsFromUpdate(e.Update, nil), now)
	w.st.Process(now)
	select {
	case w.seen <- struct{}{}:
	default:
	}
}

// TestWireControllerFeed runs the full southbound path over a real BGP
// session: route server event -> EventToUpdate -> wire (ADD-PATH) ->
// EventsFromUpdate -> Stellar -> QoS rule on the victim's port.
func TestWireControllerFeed(t *testing.T) {
	// Data plane + Stellar on the controller side.
	fab := fabric.New()
	if err := fab.AddPort(fabric.NewPort("AS64512", victimMAC, 1e9)); err != nil {
		t.Fatal(err)
	}
	router := hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(4, hw.RTBHUnitN))
	mgr := core.NewQoSManager(fab, router, map[string]int{"AS64512": 0})
	st := core.New(core.Config{Manager: mgr, Queue: core.NewChangeQueue(1000, 1000)})
	ws := &wireStellar{st: st, seen: make(chan struct{}, 16)}

	// iBGP + ADD-PATH session pair: route server side (rsSess) and
	// controller side (passive, collects only).
	rsSess, ctrlSess, err := bgpsession.Pair(
		bgpsession.Config{LocalAS: ixpASN, BGPID: netip.MustParseAddr("10.0.0.1"), AddPath: true},
		bgpsession.Config{LocalAS: ixpASN, BGPID: netip.MustParseAddr("10.0.0.2"), AddPath: true, Passive: true},
		nil, ws.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer rsSess.Close()
	defer ctrlSess.Close()
	if !rsSess.Options().AddPathIPv4 {
		t.Fatal("ADD-PATH not negotiated on the controller session")
	}

	// Route server with the victim registered.
	policy := irr.NewPolicy()
	policy.IRR.Register(64512, victimPfx)
	rs := routeserver.New(routeserver.Config{ASN: ixpASN, BlackholeNextHop: bhNextHop, Policy: policy})
	if err := rs.AddPeer(routeserver.PeerConfig{Name: "AS64512", ASN: 64512,
		BGPID: netip.MustParseAddr("10.0.0.12")}); err != nil {
		t.Fatal(err)
	}
	rs.Subscribe(func(ev routeserver.ControllerEvent) {
		if err := rsSess.SendUpdate(core.EventToUpdate(ev)); err != nil {
			t.Errorf("send controller update: %v", err)
		}
	})

	// The victim announces its /32 with an Advanced Blackholing signal.
	spec := core.DropUDPSrcPort(123)
	ec, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:         bgp.OriginIGP,
			ASPath:         []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop:        netip.MustParseAddr("80.81.192.12"),
			ExtCommunities: []bgp.ExtCommunity{ec},
		},
		NLRI: []bgp.PathPrefix{{Prefix: hostPfx}},
	}
	if _, _, err := rs.HandleUpdateBatch("AS64512", u); err != nil {
		t.Fatal(err)
	}

	select {
	case <-ws.seen:
	case <-time.After(3 * time.Second):
		t.Fatal("controller never received the feed update")
	}

	port, _ := fab.PortByName("AS64512")
	deadline := time.Now().Add(2 * time.Second)
	for port.RuleCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if port.RuleCount() != 1 {
		t.Fatalf("rules installed: %d (errors: %v)", port.RuleCount(), st.Errors())
	}
	rule := port.Rules()[0]
	if rule.Action != fabric.ActionDrop || rule.Match.SrcPort != 123 {
		t.Fatalf("installed rule: %+v", rule)
	}

	// Withdraw over the same wire: the rule must disappear.
	w := &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: hostPfx}}}
	if _, _, err := rs.HandleUpdateBatch("AS64512", w); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ws.seen:
	case <-time.After(3 * time.Second):
		t.Fatal("withdraw never arrived")
	}
	deadline = time.Now().Add(2 * time.Second)
	for port.RuleCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if port.RuleCount() != 0 {
		t.Fatalf("rule not removed: %d", port.RuleCount())
	}
}

// TestWireFeedRoundtripMultiPath checks that two members' paths for the
// same prefix survive the wire feed as distinct events (the ADD-PATH
// guarantee) over real message framing.
func TestWireFeedRoundtripMultiPath(t *testing.T) {
	attrs := bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
		NextHop: netip.MustParseAddr("80.81.192.12"),
	}
	ev1 := routeserver.ControllerEvent{
		Peer: "AS64512", PeerAS: 64512, PathID: 1,
		Announced: []netip.Prefix{hostPfx}, Attrs: attrs,
	}
	u := core.EventToUpdate(ev1)
	// Marshal through the actual ADD-PATH wire encoding.
	opts := &bgp.Options{AddPathIPv4: true}
	wire, err := bgp.Marshal(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := bgp.Unmarshal(wire, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := core.EventsFromUpdate(msg.(*bgp.Update), nil)
	if len(events) != 1 {
		t.Fatalf("events: %d", len(events))
	}
	got := events[0]
	if got.PathID != 1 || got.PeerAS != 64512 || got.Peer != "AS64512" {
		t.Fatalf("event: %+v", got)
	}
	if len(got.Announced) != 1 || got.Announced[0] != hostPfx {
		t.Fatalf("announced: %v", got.Announced)
	}
}

// TestWireFeedIPv6 checks the MP-BGP path of the controller feed.
func TestWireFeedIPv6(t *testing.T) {
	p6 := netip.MustParsePrefix("2001:db8:100::/48")
	attrs := bgp.PathAttrs{
		Origin: bgp.OriginIGP,
		ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
		MPReach: &bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
			NextHop: netip.MustParseAddr("2001:db8::1")},
	}
	ev := routeserver.ControllerEvent{
		Peer: "AS64512", PeerAS: 64512, PathID: 3,
		Announced: []netip.Prefix{p6}, Attrs: attrs,
	}
	u := core.EventToUpdate(ev)
	opts := &bgp.Options{AddPathIPv4: true, AddPathIPv6: true}
	wire, err := bgp.Marshal(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := bgp.Unmarshal(wire, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := core.EventsFromUpdate(msg.(*bgp.Update), nil)
	if len(events) != 1 || len(events[0].Announced) != 1 || events[0].Announced[0] != p6 {
		t.Fatalf("v6 events: %+v", events)
	}
	if events[0].PathID != 3 {
		t.Fatalf("path ID: %d", events[0].PathID)
	}
}

// TestMemberSessionOverTCP runs a member's whole RTBH interaction over a
// real TCP BGP session against an in-process route server frontend: the
// member announces a blackholed /32, a second member receives the
// export with the next hop rewritten to the IXP's null interface.
func TestMemberSessionOverTCP(t *testing.T) {
	policy := irr.NewPolicy()
	policy.IRR.Register(64512, victimPfx)
	rs := routeserver.New(routeserver.Config{ASN: ixpASN, BlackholeNextHop: bhNextHop, Policy: policy})

	var (
		mu    sync.Mutex
		peers = make(map[string]*bgpsession.Session)
	)
	distribute := func(exports []routeserver.PeerUpdates) {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range exports {
			if s, ok := peers[e.Peer]; ok {
				for _, u := range e.Updates {
					if err := s.SendUpdate(u); err != nil {
						t.Errorf("export: %v", err)
					}
				}
			}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				var sess *bgpsession.Session
				var name string
				var once sync.Once
				sess = bgpsession.New(conn, bgpsession.Config{
					LocalAS: ixpASN, BGPID: netip.MustParseAddr("10.0.0.1"),
				}, func(e bgpsession.Event) {
					switch {
					case e.State == bgpsession.StateEstablished:
						once.Do(func() {
							open := sess.PeerOpen()
							name = core.DefaultPeerNamer(open.AS, 0)
							_ = rs.AddPeer(routeserver.PeerConfig{Name: name, ASN: open.AS, BGPID: open.BGPID})
							mu.Lock()
							peers[name] = sess
							mu.Unlock()
						})
					case e.Update != nil:
						exports, _, err := rs.HandleUpdateBatch(name, e.Update)
						if err == nil {
							distribute(exports)
						}
					}
				})
				_ = sess.Run()
			}(conn)
		}
	}()

	dial := func(asn uint32, id string, handler bgpsession.Handler) *bgpsession.Session {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		s := bgpsession.New(conn, bgpsession.Config{
			LocalAS: asn, BGPID: netip.MustParseAddr(id),
		}, handler)
		go s.Run()
		deadline := time.Now().Add(3 * time.Second)
		for s.State() != bgpsession.StateEstablished {
			if time.Now().After(deadline) {
				t.Fatalf("session AS%d not established: %v", asn, s.Err())
			}
			time.Sleep(time.Millisecond)
		}
		return s
	}

	received := make(chan *bgp.Update, 4)
	observer := dial(64513, "10.0.0.13", func(e bgpsession.Event) {
		if e.Update != nil {
			received <- e.Update
		}
	})
	defer observer.Close()

	victim := dial(64512, "10.0.0.12", nil)
	defer victim.Close()

	// Give the server a moment to register both peers.
	time.Sleep(50 * time.Millisecond)

	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop:     netip.MustParseAddr("80.81.192.12"),
			Communities: []bgp.Community{bgp.CommunityBlackhole},
		},
		NLRI: []bgp.PathPrefix{{Prefix: hostPfx}},
	}
	if err := victim.SendUpdate(u); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-received:
		if len(got.NLRI) != 1 || got.NLRI[0].Prefix != hostPfx {
			t.Fatalf("export NLRI: %v", got.NLRI)
		}
		if got.Attrs.NextHop != bhNextHop {
			t.Fatalf("next hop: %v, want blackhole %v", got.Attrs.NextHop, bhNextHop)
		}
		if !got.Attrs.HasCommunity(bgp.CommunityNoExport) {
			t.Fatal("no-export missing on RTBH export")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("blackhole export never arrived at the observer")
	}
	_ = victimIP // document the attacked address for symmetry
}

// TestPacketLevelWireToFabric drives real wire bytes through the whole
// data path: packets are serialized to Ethernet frames, decoded by the
// fabric's packet path, switched by destination MAC, and classified by
// an installed blackholing rule.
func TestPacketLevelWireToFabric(t *testing.T) {
	fab := fabric.New()
	port := fabric.NewPort("AS64512", victimMAC, 1e9)
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	m.DstIP = hostPfx
	if err := port.InstallRule(&fabric.Rule{ID: "drop-ntp", Match: m, Action: fabric.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	if err := fab.AddPort(port); err != nil {
		t.Fatal(err)
	}

	srcMAC := netpkt.MustParseMAC("02:00:00:00:00:02")
	mk := func(build func(*netpkt.Builder) *netpkt.Builder) *netpkt.Packet {
		wire, err := build(netpkt.NewBuilder(srcMAC, victimMAC)).Build().Serialize()
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := netpkt.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}

	ntp := mk(func(b *netpkt.Builder) *netpkt.Builder {
		return b.IPv4(netip.MustParseAddr("198.51.100.1"), victimIP).
			UDP(123, 443).Payload(make([]byte, 468))
	})
	if d, err := fab.SwitchPacket(ntp); err != nil || d != fabric.DroppedByRule {
		t.Fatalf("ntp: %v %v", d, err)
	}
	web := mk(func(b *netpkt.Builder) *netpkt.Builder {
		return b.IPv4(netip.MustParseAddr("203.0.113.9"), victimIP).
			TCP(50123, 443, netpkt.FlagACK).Payload(make([]byte, 900))
	})
	if d, err := fab.SwitchPacket(web); err != nil || d != fabric.Delivered {
		t.Fatalf("web: %v %v", d, err)
	}
	// Telemetry counted the dropped frame with its true wire length.
	r, _ := port.Rule("drop-ntp")
	cs := r.Counters().Snapshot()
	if cs.MatchedPackets != 1 || cs.DroppedBytes != int64(ntp.WireLen) {
		t.Fatalf("counters: %+v (wire len %d)", cs, ntp.WireLen)
	}
}

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
	a, b, err := bgpsession.Pair(
		bgpsession.Config{LocalAS: 64512, BGPID: netip.MustParseAddr("10.0.0.1")},
		bgpsession.Config{LocalAS: 64513, BGPID: netip.MustParseAddr("10.0.0.2")},
		nil, func(e bgpsession.Event) {
			if e.Update != nil {
				select {
				case got <- e.Update:
				default:
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

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
		match, ok := mitigation.FlowSpecToMatch(fs)
		if !ok {
			t.Fatal("spec not compilable")
		}
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
		if r := port.Classify(memcached); r == nil || r.Action != fabric.ActionDrop {
			t.Fatalf("classify: %+v", r)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("flowspec action never arrived")
	}
	_ = nlri // wire bytes validated by the bgp package's own tests
}
