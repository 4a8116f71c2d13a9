package bgppipe

import (
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgpsession"
	"stellar/internal/routeserver"
)

// TestRSFeedExportsOnlyToLivePeers pins that RSFeed turns exports into TX
// messages only for peers whose session is up on its pipe. Six members
// are registered with the route server and two of them connect: an
// UPDATE from one yields exactly one TX message, which the other
// receives, and once that session tears down nothing is addressed to it.
func TestRSFeedExportsOnlyToLivePeers(t *testing.T) {
	rs := routeserver.New(routeserver.Config{ASN: 6695, BlackholeNextHop: netip.MustParseAddr("80.81.193.66")})
	for asn := uint32(64512); asn < 64518; asn++ {
		if err := rs.AddPeer(routeserver.PeerConfig{Name: fmt.Sprintf("AS%d", asn), ASN: asn}); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	up, down, applied := make(chan string, 2), make(chan string, 2), make(chan struct{}, 8)
	server := New(Options{})
	server.Attach(NewListen(ln, bgpsession.Config{LocalAS: 6695, BGPID: netip.MustParseAddr("80.81.192.1")}))
	server.Attach(&RSFeed{
		RS:         rs,
		OnPeerUp:   func(peer string, _ uint32, _ netip.Addr) { up <- peer },
		OnPeerDown: func(peer string, _ error) { down <- peer },
		AfterApply: func() { applied <- struct{}{} },
	})
	// tx records every TX message as (addressee, announced prefix).
	type txMsg struct {
		peer   string
		prefix netip.Prefix
	}
	var txMu sync.Mutex
	var tx []txMsg
	server.OnMsg(DirTX, func(m *Msg) bool {
		if u := m.Update(); u != nil {
			txMu.Lock()
			for _, pp := range u.AllAnnounced() {
				tx = append(tx, txMsg{m.Peer, pp.Prefix})
			}
			txMu.Unlock()
		}
		return true
	})
	server.Start()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			server.Stop()
			if err := server.Wait(); err != nil {
				t.Errorf("server pipe: %v", err)
			}
		}
	}
	defer stop()

	wait := func(what string, ch <-chan string) string {
		t.Helper()
		select {
		case peer := <-ch:
			return peer
		case <-time.After(3 * time.Second):
			t.Fatalf("no %s within deadline", what)
			return ""
		}
	}
	addr := ln.Addr().String()
	announcer := dialMember(t, addr, 64512, "10.0.0.12")
	defer announcer.sess.Close()
	observer := dialMember(t, addr, 64513, "10.0.0.13")
	defer observer.sess.Close()
	wait("peer-up", up)
	wait("peer-up", up)

	waitApplied := func(what string) {
		t.Helper()
		select {
		case <-applied:
		case <-time.After(3 * time.Second):
			t.Fatalf("%s not applied within deadline", what)
		}
	}
	announce := func(prefix netip.Prefix) {
		t.Helper()
		err := announcer.sess.SendUpdate(&bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
				NextHop: netip.MustParseAddr("80.81.192.12"),
			},
			NLRI: []bgp.PathPrefix{{Prefix: prefix}},
		})
		if err != nil {
			t.Fatal(err)
		}
		waitApplied(prefix.String())
	}
	before, after := netip.MustParsePrefix("203.0.113.0/24"), netip.MustParsePrefix("198.51.100.0/24")
	announce(before)
	select {
	case u := <-observer.updates:
		if len(u.NLRI) != 1 || u.NLRI[0].Prefix != before {
			t.Fatalf("observer received %+v, want %s", u, before)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("observer received no export")
	}

	observer.sess.Close()
	if peer := wait("peer-down", down); peer != "AS64513" {
		t.Fatalf("peer-down for %s, want AS64513", peer)
	}
	waitApplied("peer-down")
	announce(after)
	stop() // drains the TX line

	addressees := map[netip.Prefix][]string{}
	for _, m := range tx {
		addressees[m.prefix] = append(addressees[m.prefix], m.peer)
	}
	if got := addressees[before]; len(got) != 1 || got[0] != "AS64513" {
		t.Fatalf("TX messages for %s addressed to %v, want exactly [AS64513]", before, got)
	}
	if got := addressees[after]; len(got) != 0 {
		t.Fatalf("TX messages for %s addressed to %v after the only other session went down, want none", after, got)
	}
}

// scriptStage pushes a fixed list of RX messages, in order, and returns.
type scriptStage struct {
	msgs []*Msg
	pipe *Pipe
}

func (s *scriptStage) Name() string         { return "script" }
func (s *scriptStage) Attach(p *Pipe) error { s.pipe = p; return nil }
func (s *scriptStage) Stop() error          { return nil }
func (s *scriptStage) Run() error {
	for _, m := range s.msgs {
		if err := s.pipe.Send(DirRX, m); err != nil {
			return err
		}
	}
	return nil
}

// TestRSFeedTXMatchesMemberWalk pins RSFeed's TX sequence to the one the
// per-member walk produced: for every RX message, the route server's
// exports laid out per registered member in name order, each member's
// UPDATEs in batch order, filtered to the peers up on the pipe at the
// time. A twin route server fed the same messages gives the reference.
// The script covers a member registered with no session, a reconnect
// whose EventPeerUp overtakes its predecessor's EventPeerDown (two
// sessions up at once, so the first down leaves the peer up), a peer
// going down mid-stream, and session loss flushing a peer's routes.
func TestRSFeedTXMatchesMemberWalk(t *testing.T) {
	cfg := routeserver.Config{ASN: 6695, BlackholeNextHop: netip.MustParseAddr("80.81.193.66")}
	live, twin := routeserver.New(cfg), routeserver.New(cfg)
	// Registered by an in-process door, never up on the pipe.
	offline := routeserver.PeerConfig{Name: "AS64599", ASN: 64599}
	for _, rs := range []*routeserver.RouteServer{live, twin} {
		if err := rs.AddPeer(offline); err != nil {
			t.Fatal(err)
		}
	}

	up := func(asn uint32) *Msg {
		return &Msg{Peer: fmt.Sprintf("AS%d", asn), PeerAS: asn, Event: EventPeerUp}
	}
	down := func(asn uint32) *Msg {
		return &Msg{Peer: fmt.Sprintf("AS%d", asn), PeerAS: asn, Event: EventPeerDown}
	}
	update := func(asn uint32, pathLen int, communities []bgp.Community, announce []string, withdraw []string) *Msg {
		path := []uint32{asn}
		for len(path) < pathLen {
			path = append(path, 64999)
		}
		u := &bgp.Update{Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
			NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, byte(asn)}),
			Communities: communities,
		}}
		for _, p := range announce {
			u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: netip.MustParsePrefix(p)})
		}
		for _, p := range withdraw {
			u.Withdrawn = append(u.Withdrawn, bgp.PathPrefix{Prefix: netip.MustParsePrefix(p)})
		}
		return &Msg{Peer: fmt.Sprintf("AS%d", asn), PeerAS: asn, BGP: u}
	}
	blackhole := []bgp.Community{bgp.CommunityBlackhole}
	script := []*Msg{
		up(64512), up(64513), up(64514), up(64520),
		update(64512, 1, nil, []string{"203.0.113.0/24", "198.51.100.0/24"}, nil),
		update(64513, 2, nil, []string{"203.0.113.0/24"}, nil), // a worse path: no export
		update(64512, 1, blackhole, []string{"203.0.113.7/32"}, nil),
		// AS64520 whitelists AS64513 only; AS64514 blocks AS64512.
		update(64520, 1, []bgp.Community{bgp.MakeCommunity(6695, 64513)}, []string{"192.0.2.0/24"}, nil),
		update(64514, 1, []bgp.Community{bgp.MakeCommunity(0, 64512)}, []string{"100.64.0.0/24"}, nil),
		up(64513), // reconnect overtakes the old session's down
		down(64513),
		update(64512, 1, nil, nil, []string{"203.0.113.0/24"}), // promotes AS64513's path
		down(64514), // mid-stream: AS64514's routes are withdrawn from the others
		update(64513, 1, blackhole, []string{"203.0.113.9/32"}, []string{"203.0.113.0/24"}),
		update(64520, 1, nil, []string{"192.0.2.0/24", "192.0.2.128/25"}, nil),
		down(64512), // session loss flushes AS64512's routes
		update(64513, 1, nil, []string{"203.0.113.0/24"}, nil),
		down(64513), down(64520),
	}

	// The reference: the twin's exports, walked per registered member.
	type send struct {
		peer string
		u    *bgp.Update
	}
	var want []send
	ups := make(map[string]int)
	for _, m := range script {
		var batches []routeserver.PeerUpdates
		switch m.Event {
		case EventPeerUp:
			if err := twin.AddPeer(routeserver.PeerConfig{Name: m.Peer, ASN: m.PeerAS}); err != nil && err != routeserver.ErrDuplicatePeer {
				t.Fatal(err)
			}
			ups[m.Peer]++
			continue
		case EventPeerDown:
			ups[m.Peer]--
			x, err := twin.HandleWithdrawAll(m.Peer)
			if err != nil {
				t.Fatal(err)
			}
			names := twin.Peers()
			slices.Sort(names)
			for _, name := range names {
				if owed := x.To(name, nil); owed != nil {
					batches = append(batches, routeserver.PeerUpdates{Peer: name, Updates: owed})
				}
			}
		default:
			var err error
			if batches, _, err = twin.HandleUpdateBatch(m.Peer, m.Update()); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches {
			if ups[b.Peer] > 0 {
				for _, u := range b.Updates {
					want = append(want, send{b.Peer, u})
				}
			}
		}
	}

	p := New(Options{})
	p.Attach(&scriptStage{msgs: script})
	p.Attach(&RSFeed{RS: live, OnError: func(peer string, err error) { t.Errorf("%s: %v", peer, err) }})
	var got []send
	p.OnMsg(DirTX, func(m *Msg) bool {
		got = append(got, send{m.Peer, m.Update()})
		return true
	})
	p.Start()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	if len(want) < 10 {
		t.Fatalf("the reference sends only %d messages", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("RSFeed sent %d messages, the member walk %d", len(got), len(want))
	}
	for i := range want {
		if got[i].peer != want[i].peer || !reflect.DeepEqual(got[i].u, want[i].u) {
			t.Fatalf("TX %d: %s %+v, member walk %s %+v", i, got[i].peer, got[i].u, want[i].peer, want[i].u)
		}
		if got[i].peer == offline.Name {
			t.Fatalf("TX %d addressed to %s, which has no session", i, offline.Name)
		}
	}
}
