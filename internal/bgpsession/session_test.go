package bgpsession

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"stellar/internal/bgp"
)

var (
	idA = netip.MustParseAddr("10.0.0.1")
	idB = netip.MustParseAddr("10.0.0.2")
)

// pair wires two sessions over an in-memory pipe and runs both, returning
// once both reach Established.
func pair(a, b Config, ha, hb Handler) (*Session, *Session, error) {
	ca, cb := net.Pipe()
	sa := New(ca, a, ha)
	sb := New(cb, b, hb)
	errCh := make(chan error, 2)
	go func() { errCh <- sa.Run() }()
	go func() { errCh <- sb.Run() }()
	deadline := time.After(5 * time.Second)
	for {
		if sa.State() == StateEstablished && sb.State() == StateEstablished {
			return sa, sb, nil
		}
		select {
		case err := <-errCh:
			if err != nil {
				return nil, nil, err
			}
		case <-deadline:
			return nil, nil, errors.New("bgpsession: pair timed out")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestHandshakeEstablished(t *testing.T) {
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA},
		Config{LocalAS: 64513, BGPID: idB},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	defer sb.Close()
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("states: %v %v", sa.State(), sb.State())
	}
	if sa.PeerOpen().AS != 64513 || sb.PeerOpen().AS != 64512 {
		t.Fatalf("peer AS: %d %d", sa.PeerOpen().AS, sb.PeerOpen().AS)
	}
}

func TestUpdateDelivery(t *testing.T) {
	var mu sync.Mutex
	var got []*bgp.Update
	recvd := make(chan struct{}, 16)
	handler := func(e Event) {
		if e.Update != nil {
			mu.Lock()
			got = append(got, e.Update)
			mu.Unlock()
			recvd <- struct{}{}
		}
	}
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA},
		Config{LocalAS: 64513, BGPID: idB},
		nil, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	defer sb.Close()

	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			Communities: []bgp.Community{
				bgp.CommunityBlackhole,
			},
		},
		NLRI: []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("100.10.10.10/32")}},
	}
	if err := sa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recvd:
	case <-time.After(2 * time.Second):
		t.Fatal("update not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !got[0].Attrs.HasCommunity(bgp.CommunityBlackhole) {
		t.Fatalf("got %v", got)
	}
}

func TestAddPathNegotiation(t *testing.T) {
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA, AddPath: true},
		Config{LocalAS: 64512, BGPID: idB, AddPath: true}, // iBGP
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	defer sb.Close()
	if !optionsOf(sa).AddPathIPv4 || !optionsOf(sb).AddPathIPv4 {
		t.Fatalf("ADD-PATH not negotiated: %+v %+v", optionsOf(sa), optionsOf(sb))
	}
}

func TestAddPathAsymmetric(t *testing.T) {
	// Only one side offers ADD-PATH: neither may use it.
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA, AddPath: true},
		Config{LocalAS: 64513, BGPID: idB, AddPath: false},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	defer sb.Close()
	if optionsOf(sa).AddPathIPv4 {
		t.Fatal("ADD-PATH negotiated against a non-supporting peer")
	}
}

func TestAddPathUpdateRoundtrip(t *testing.T) {
	recvd := make(chan *bgp.Update, 1)
	handler := func(e Event) {
		if e.Update != nil {
			select {
			case recvd <- e.Update:
			default:
			}
		}
	}
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA, AddPath: true},
		Config{LocalAS: 64512, BGPID: idB, AddPath: true},
		nil, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	defer sb.Close()

	pfx := netip.MustParsePrefix("100.10.10.10/32")
	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []bgp.PathPrefix{{Prefix: pfx, PathID: 7}, {Prefix: pfx, PathID: 9}},
	}
	if err := sa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recvd:
		if len(got.NLRI) != 2 || got.NLRI[0].PathID != 7 || got.NLRI[1].PathID != 9 {
			t.Fatalf("NLRI: %v", got.NLRI)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no update")
	}
}

func TestExpectASMismatch(t *testing.T) {
	ca, cb := net.Pipe()
	closed, onClose := closedEvents()
	sa := New(ca, Config{LocalAS: 64512, BGPID: idA, ExpectAS: 65000}, onClose)
	sb := New(cb, Config{LocalAS: 64513, BGPID: idB}, nil)
	errA := make(chan error, 1)
	go func() { errA <- sa.Run() }()
	go sb.Run()
	select {
	case err := <-errA:
		if err != ErrBadPeerAS {
			t.Fatalf("err = %v, want ErrBadPeerAS", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("no Closed event")
	}
}

func TestSendBeforeEstablished(t *testing.T) {
	ca, _ := net.Pipe()
	s := New(ca, Config{LocalAS: 1, BGPID: idA}, nil)
	if err := s.SendUpdate(&bgp.Update{}); err != ErrNotEstablished {
		t.Fatalf("err = %v", err)
	}
	ca.Close()
}

func TestCloseDeliversClosedEvent(t *testing.T) {
	closed, handler := closedEvents()
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA},
		Config{LocalAS: 64513, BGPID: idB},
		handler, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa.Close()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("no Closed event")
	}
	if sa.State() != StateClosed {
		t.Fatalf("state = %v", sa.State())
	}
	sb.Close()
}

func TestNotificationClosesPeer(t *testing.T) {
	closed, onClose := closedEvents()
	sa, _, err := pair(
		Config{LocalAS: 64512, BGPID: idA},
		Config{LocalAS: 64513, BGPID: idB},
		nil, onClose)
	if err != nil {
		t.Fatal(err)
	}
	sa.Close() // sends CEASE
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("peer did not close on NOTIFICATION")
	}
}

func TestKeepalivesMaintainSession(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA, HoldTime: 300 * time.Millisecond},
		Config{LocalAS: 64513, BGPID: idB, HoldTime: 300 * time.Millisecond},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	defer sb.Close()
	// Hold time is 300ms; if keepalives were not sent the session would
	// die within ~300ms. Survive 4x that.
	time.Sleep(1200 * time.Millisecond)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("session died: %v %v", sa.State(), sb.State())
	}
}

// TestHoldTimerExpiryNotifies pins RFC 4271 §6.5 behavior: when the
// peer falls silent past the hold time, the session sends a
// NOTIFICATION (Hold Timer Expired) before closing the transport.
func TestHoldTimerExpiryNotifies(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ca, cb := net.Pipe()
	s := New(ca, Config{LocalAS: 64512, BGPID: idA, HoldTime: 200 * time.Millisecond}, nil)
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run() }()

	// Hand-rolled peer: complete the OPEN/KEEPALIVE handshake, then go
	// silent — reading everything the session sends but never writing
	// another keepalive.
	if err := bgp.WriteMessage(cb, bgp.NewOpen(64513, 1, idB), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bgp.ReadMessage(cb, nil); err != nil {
		t.Fatal(err)
	}
	if err := bgp.WriteMessage(cb, &bgp.Keepalive{}, nil); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no NOTIFICATION before deadline")
		}
		_ = cb.SetReadDeadline(time.Now().Add(time.Second))
		msg, err := bgp.ReadMessage(cb, nil)
		if err != nil {
			t.Fatalf("transport closed before NOTIFICATION arrived: %v", err)
		}
		if n, ok := msg.(*bgp.Notification); ok {
			if n.Code != bgp.NotifHoldTimerExpired {
				t.Fatalf("NOTIFICATION code = %d, want hold timer expired", n.Code)
			}
			break
		}
	}
	select {
	case err := <-runErr:
		if err != ErrHoldExpired {
			t.Fatalf("Run returned %v, want ErrHoldExpired", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("session did not close after hold expiry")
	}
	cb.Close()
}

// TestSendUpdatesAfterClose pins the deterministic error contract: a
// sender racing Close sees ErrClosed — never the transport's raw
// "use of closed connection" — because close() marks the state before
// closing the conn and SendUpdate maps write failures back through it.
func TestSendUpdatesAfterClose(t *testing.T) {
	sa, sb, err := pair(
		Config{LocalAS: 64512, BGPID: idA},
		Config{LocalAS: 64513, BGPID: idB},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("203.0.113.0/24")}},
	}
	sendErr := make(chan error, 1)
	go func() {
		for {
			if err := sa.SendUpdate(u); err != nil {
				sendErr <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	sa.Close()
	select {
	case err := <-sendErr:
		if err != ErrClosed {
			t.Fatalf("racing sender got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender never observed the close")
	}
	// And after Close returned, the error is ErrClosed every time.
	for i := 0; i < 3; i++ {
		if err := sa.SendUpdate(u); err != ErrClosed {
			t.Fatalf("SendUpdate after Close = %v, want ErrClosed", err)
		}
	}
}

func TestStateString(t *testing.T) {
	for _, c := range []struct {
		s State
		w string
	}{{StateIdle, "Idle"}, {StateOpenSent, "OpenSent"}, {StateOpenConfirm, "OpenConfirm"},
		{StateEstablished, "Established"}, {StateClosed, "Closed"}} {
		if c.s.String() != c.w {
			t.Errorf("%v != %v", c.s.String(), c.w)
		}
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	recvd := make(chan *bgp.Update, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s := New(conn, Config{LocalAS: 64513, BGPID: idB}, func(e Event) {
			if e.Update != nil {
				select {
				case recvd <- e.Update:
				default:
				}
			}
		})
		_ = s.Run()
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := New(conn, Config{LocalAS: 64512, BGPID: idA}, nil)
	go client.Run()
	defer client.Close()

	deadline := time.Now().Add(3 * time.Second)
	for client.State() != StateEstablished {
		if time.Now().After(deadline) {
			t.Fatalf("not established: %v", client.State())
		}
		time.Sleep(time.Millisecond)
	}
	u := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("203.0.113.0/24")}},
	}
	if err := client.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recvd:
		if len(got.NLRI) != 1 {
			t.Fatalf("NLRI: %v", got.NLRI)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no update over TCP")
	}
}

// optionsOf reads the session's negotiated encode/decode options.
func optionsOf(s *Session) bgp.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// closedEvents returns a handler that passes the session's Closed event
// (sent once, with its terminal error) to the returned channel.
func closedEvents() (<-chan Event, Handler) {
	closed := make(chan Event, 1)
	return closed, func(e Event) {
		if e.Update == nil && e.State == StateClosed {
			closed <- e
		}
	}
}
