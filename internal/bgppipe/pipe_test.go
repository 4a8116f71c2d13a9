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

// clientPipe wires a Dial speaker plus recording handlers into a pipe,
// the member's side of the e2e test below.
type clientPipe struct {
	pipe    *Pipe
	speaker *Speaker
	up      chan *Msg
	updates chan *bgp.Update
}

func dialClient(t *testing.T, addr string, asn uint32, id string) *clientPipe {
	t.Helper()
	sp, err := Dial(addr, bgpsession.Config{
		LocalAS: asn, BGPID: netip.MustParseAddr(id),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &clientPipe{
		pipe:    New(Options{}),
		speaker: sp,
		up:      make(chan *Msg, 1),
		updates: make(chan *bgp.Update, 16),
	}
	c.pipe.OnMsg(DirRX, func(m *Msg) bool {
		switch {
		case m.Event == EventPeerUp:
			select {
			case c.up <- m:
			default:
			}
		case m.Update() != nil:
			c.updates <- m.Update()
		}
		return true
	})
	c.pipe.Attach(sp)
	c.pipe.Start()
	select {
	case <-c.up:
	case <-time.After(3 * time.Second):
		t.Fatalf("AS%d: no PeerUp within deadline", asn)
	}
	return c
}

func (c *clientPipe) close(t *testing.T) {
	t.Helper()
	c.pipe.Stop()
	if err := c.pipe.Wait(); err != nil {
		t.Errorf("client pipe: %v", err)
	}
}

// TestListenSpeakerEndToEnd runs the full wire pipeline over real TCP:
// a Listen+RSFeed server pipe and two Dial-speaker member pipes. One
// member announces a prefix; the route server applies it and the other
// member receives the export — all through pipe stages, no Handler
// callbacks.
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
	observer := dialClient(t, addr, 64513, "10.0.0.13")
	defer observer.close(t)
	announcer := dialClient(t, addr, 64512, "10.0.0.12")
	defer announcer.close(t)
	// A client sees its session up before the server's feed registers
	// the peer; an announcement applied before the observer is
	// registered has no one to export to.
	for deadline := time.Now().Add(3 * time.Second); len(rs.Peers()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("route server registered %v, want both members", rs.Peers())
		}
	}

	prefix := netip.MustParsePrefix("203.0.113.0/24")
	announcer.pipe.Send(DirTX, &Msg{BGP: &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop: netip.MustParseAddr("80.81.192.12"),
		},
		NLRI: []bgp.PathPrefix{{Prefix: prefix}},
	}})

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
