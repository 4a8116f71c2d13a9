package bgppipe

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgpsession"
	"stellar/internal/routeserver"
)

// srcStage pushes n RX messages and returns.
type srcStage struct {
	n    int
	pipe *Pipe
}

func (s *srcStage) Name() string         { return "src" }
func (s *srcStage) Attach(p *Pipe) error { s.pipe = p; return nil }
func (s *srcStage) Stop() error          { return nil }
func (s *srcStage) Run() error {
	for i := 0; i < s.n; i++ {
		s.pipe.Send(DirRX, &Msg{Peer: "src", BGP: &bgp.Keepalive{}})
	}
	return nil
}

// TestPipeOrderingAndShutdown pins the pipe contract: handlers run in
// registration order, a false return drops the message from later
// handlers, RX handlers may produce TX messages, and Wait returns only
// after both lines drain — including TX messages produced while the RX
// line was shutting down.
func TestPipeOrderingAndShutdown(t *testing.T) {
	const n = 100
	p := New(Options{Buffer: 4})
	p.Attach(&srcStage{n: n})

	var mu sync.Mutex
	var firstSeen, secondSeen []uint64
	var txSeen []uint64
	p.OnMsg(DirRX, func(m *Msg) bool {
		mu.Lock()
		firstSeen = append(firstSeen, m.Seq)
		mu.Unlock()
		return m.Seq%2 == 0 // drop odd messages from later handlers
	})
	p.OnMsg(DirRX, func(m *Msg) bool {
		mu.Lock()
		secondSeen = append(secondSeen, m.Seq)
		mu.Unlock()
		p.Send(DirTX, &Msg{Peer: m.Peer, BGP: m.BGP})
		return true
	})
	p.OnMsg(DirTX, func(m *Msg) bool {
		mu.Lock()
		txSeen = append(txSeen, m.Seq)
		mu.Unlock()
		return true
	})

	p.Start()
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	if len(firstSeen) != n {
		t.Fatalf("first handler saw %d messages, want %d", len(firstSeen), n)
	}
	for i := 1; i < len(firstSeen); i++ {
		if firstSeen[i] <= firstSeen[i-1] {
			t.Fatalf("RX out of order at %d: %v <= %v", i, firstSeen[i], firstSeen[i-1])
		}
	}
	if len(secondSeen) != n/2 {
		t.Fatalf("second handler saw %d messages, want %d (odd seqs dropped)", len(secondSeen), n/2)
	}
	for _, seq := range secondSeen {
		if seq%2 != 0 {
			t.Fatalf("dropped message leaked to second handler: seq %d", seq)
		}
	}
	// Every TX message produced by the RX chain was delivered before
	// Wait returned.
	if len(txSeen) != n/2 {
		t.Fatalf("TX handler saw %d messages, want %d", len(txSeen), n/2)
	}
}

// TestPipeOnMsgAfterStartPanics pins that the handler chain is frozen
// once the lines are running.
func TestPipeOnMsgAfterStartPanics(t *testing.T) {
	p := New(Options{})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("OnMsg after Start did not panic")
		}
		p.Stop()
		_ = p.Wait()
	}()
	p.OnMsg(DirRX, func(*Msg) bool { return true })
}

// memberSession is a member's side of the end-to-end tests: a bare BGP
// session over TCP, recording the UPDATEs the route server exports to
// it.
type memberSession struct {
	sess    *bgpsession.Session
	updates chan *bgp.Update
}

func dialMember(t *testing.T, addr string, asn uint32, id string) *memberSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	m := &memberSession{updates: make(chan *bgp.Update, 16)}
	m.sess = bgpsession.New(conn, bgpsession.Config{LocalAS: asn, BGPID: netip.MustParseAddr(id)}, func(e bgpsession.Event) {
		if e.Update != nil {
			m.updates <- e.Update
		}
	})
	go m.sess.Run()
	for deadline := time.Now().Add(3 * time.Second); m.sess.State() != bgpsession.StateEstablished; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("AS%d: session not established within deadline", asn)
		}
	}
	return m
}

// TestListenSpeakerEndToEnd runs the full wire pipeline over real TCP:
// a Listen+RSFeed server pipe and two members speaking bare BGP
// sessions. One member announces a prefix; the route server applies it
// and the other member receives the export.
func TestListenSpeakerEndToEnd(t *testing.T) {
	rs := routeserver.New(routeserver.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := New(Options{})
	lst := NewListen(ln, bgpsession.Config{
		LocalAS: 6695, BGPID: netip.MustParseAddr("80.81.192.1"),
	})
	server.Attach(lst)
	server.Attach(&RSFeed{RS: rs})
	server.Start()
	defer func() {
		server.Stop()
		if err := server.Wait(); err != nil {
			t.Errorf("server pipe: %v", err)
		}
	}()

	addr := ln.Addr().String()
	observer := dialMember(t, addr, 64513, "10.0.0.13")
	defer observer.sess.Close()
	announcer := dialMember(t, addr, 64512, "10.0.0.12")
	defer announcer.sess.Close()
	// A member sees its session up before the server's feed registers
	// the peer; an announcement applied before the observer is
	// registered has no one to export to.
	for deadline := time.Now().Add(3 * time.Second); len(rs.Peers()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("route server registered %v, want both members", rs.Peers())
		}
	}

	prefix := netip.MustParsePrefix("203.0.113.0/24")
	err = announcer.sess.SendUpdate(&bgp.Update{
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

	select {
	case u := <-observer.updates:
		if len(u.NLRI) != 1 || u.NLRI[0].Prefix != prefix {
			t.Fatalf("export: %+v", u)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("observer received no export")
	}

	glass := rs.Glass(prefix)
	if len(glass) != 1 || glass[0].Peer != "AS64512" || !glass[0].Best {
		t.Fatalf("looking glass: %+v", glass)
	}
}
