package bgppipe

import (
	"fmt"
	"net"
	"net/netip"
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
