package bgppipe

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"stellar/internal/bgpsession"
)

// Listen is the pipe's wire end, the route server's side of every member
// session: it accepts TCP connections, runs one BGP session per member
// (bgpsession keeps the handshake, keepalives and hold timer), injects
// what the members send as RX messages — EventPeerUp carrying the OPEN,
// each UPDATE, EventPeerDown with the terminal error — and routes TX
// messages back to the addressed peer (or every established peer when
// the address is empty). It is the stage behind ixpd's -bgp-listen flag,
// attached ahead of an RSFeed.
//
// A peer is named "AS<asn>" from its OPEN. A second live session with
// the same name is refused with a Cease NOTIFICATION, because the route
// server keys RIB state by peer name.
type Listen struct {
	// Session configures every accepted session (LocalAS, BGPID,
	// HoldTime...).
	Session bgpsession.Config

	ln   net.Listener
	pipe *Pipe

	mu       sync.Mutex
	sessions map[string]*bgpsession.Session
	stopped  bool
	wg       sync.WaitGroup
}

// NewListen creates a listen stage on an existing listener (use
// net.Listen("tcp", addr); an addr of ":0" picks a free port in tests).
func NewListen(ln net.Listener, cfg bgpsession.Config) *Listen {
	return &Listen{Session: cfg, ln: ln, sessions: make(map[string]*bgpsession.Session)}
}

// Name implements Stage.
func (l *Listen) Name() string { return "listen:" + l.ln.Addr().String() }

// Attach implements Stage: registers the TX router.
func (l *Listen) Attach(p *Pipe) error {
	if l.ln == nil {
		return errors.New("no listener (use NewListen)")
	}
	l.pipe = p
	p.OnMsg(DirTX, func(m *Msg) bool {
		u := m.Update()
		if u == nil {
			return true
		}
		l.mu.Lock()
		var targets []*bgpsession.Session
		if m.Peer == "" {
			for _, s := range l.sessions {
				targets = append(targets, s)
			}
		} else if s, ok := l.sessions[m.Peer]; ok {
			targets = append(targets, s)
		}
		l.mu.Unlock()
		for _, s := range targets {
			// A failed write means the peer is going down; its PeerDown
			// on RX carries the terminal error.
			_ = s.SendUpdate(u)
		}
		return true
	})
	return nil
}

// Run implements Stage: the accept loop. It returns once the listener
// closes (Stop) and every member session has torn down.
func (l *Listen) Run() error {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			l.mu.Lock()
			stopped := l.stopped
			l.mu.Unlock()
			l.wg.Wait()
			if stopped {
				return nil
			}
			return err
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.serve(conn)
		}()
	}
}

// serve runs one accepted session to completion, bridging it to the
// pipe.
func (l *Listen) serve(conn net.Conn) {
	var (
		sessMu sync.Mutex
		name   string
		peerAS uint32
		reject bool
	)
	var sess *bgpsession.Session
	sess = bgpsession.New(conn, l.Session, func(e bgpsession.Event) {
		switch {
		case e.Update != nil:
			sessMu.Lock()
			n, as, rej := name, peerAS, reject
			sessMu.Unlock()
			if rej {
				return
			}
			l.pipe.Send(DirRX, &Msg{Peer: n, PeerAS: as, BGP: e.Update})
		case e.State == bgpsession.StateEstablished:
			open := sess.PeerOpen()
			n := fmt.Sprintf("AS%d", open.AS)
			l.mu.Lock()
			_, dup := l.sessions[n]
			if !dup {
				l.sessions[n] = sess
			}
			l.mu.Unlock()
			if dup {
				sessMu.Lock()
				reject = true
				sessMu.Unlock()
				_ = sess.Close()
				return
			}
			sessMu.Lock()
			name, peerAS = n, open.AS
			sessMu.Unlock()
			l.pipe.Send(DirRX, &Msg{Peer: n, PeerAS: open.AS, BGP: open, Event: EventPeerUp})
		}
	})
	err := sess.Run()
	sessMu.Lock()
	n, as := name, peerAS
	sessMu.Unlock()
	if n != "" {
		l.mu.Lock()
		if l.sessions[n] == sess {
			delete(l.sessions, n)
		}
		l.mu.Unlock()
		l.pipe.Send(DirRX, &Msg{Peer: n, PeerAS: as, Event: EventPeerDown, Err: err})
	}
}

// Stop implements Stage: closes the listener and every live session.
func (l *Listen) Stop() error {
	l.mu.Lock()
	l.stopped = true
	sessions := make([]*bgpsession.Session, 0, len(l.sessions))
	for _, s := range l.sessions {
		sessions = append(sessions, s)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, s := range sessions {
		_ = s.Close()
	}
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
