// Package bgpsession implements a BGP speaker's session engine: the
// finite-state machine of RFC 4271 §8 reduced to the states an IXP route
// server and Stellar's blackholing controller exercise (Idle, OpenSent,
// OpenConfirm, Established), running over any net.Conn.
//
// The engine is deliberately connection-driven rather than timer-driven
// for the Connect/Active states: the caller supplies an established
// transport (a TCP connection or a net.Pipe in tests) and the session
// performs the OPEN exchange, capability negotiation (4-octet AS,
// multiprotocol, ADD-PATH), keepalives and hold-time enforcement.
package bgpsession

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"stellar/internal/bgp"
)

// State is the FSM state of a session.
type State int32

// Session states (RFC 4271 §8.2.2; Connect/Active collapsed into the
// caller-provided transport).
const (
	StateIdle State = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Config parameterizes a session endpoint.
type Config struct {
	// LocalAS is this speaker's AS number. The blackholing controller
	// runs iBGP (LocalAS == peer's AS) so it needs no AS of its own
	// (Section 4.3).
	LocalAS uint32
	// BGPID is the 4-byte router identifier.
	BGPID netip.Addr
	// HoldTime is the proposed hold time; 0 disables keepalives (useful
	// in deterministic tests). The effective hold time is the minimum of
	// both speakers' proposals.
	HoldTime time.Duration
	// AddPath requests ADD-PATH send+receive for IPv4 and IPv6 unicast.
	AddPath bool
	// Passive suppresses route announcements; the blackholing controller
	// is passive (it only collects).
	Passive bool
	// ExpectAS, when non-zero, closes the session if the peer's OPEN
	// carries a different AS.
	ExpectAS uint32
}

// Event is a session lifecycle or routing event delivered to the handler.
type Event struct {
	// Update is non-nil for received UPDATE messages.
	Update *bgp.Update
	// State is set (with Update == nil) on state transitions.
	State State
	// Err carries the terminal error on transition to StateClosed.
	Err error
}

// Handler receives session events. Calls are serialized. It is the
// member side's API: a member drives a bare Session and reads what the
// route server exports through its handler, while the route server's
// side puts its sessions on a bgppipe.Pipe (the Listen stage).
type Handler func(Event)

// Session is one BGP session over a net.Conn.
type Session struct {
	cfg     Config
	conn    net.Conn
	handler Handler

	mu        sync.Mutex
	state     State
	peerOpen  *bgp.Open
	opts      bgp.Options
	holdTime  time.Duration
	closeOnce sync.Once
	closeErr  error
	writeMu   sync.Mutex
	done      chan struct{}

	// closing is set by Close before its NOTIFICATION goes out: the peer
	// may answer it by closing the transport before close() marks the
	// state, and a sender's write failing then still means ErrClosed.
	closing atomic.Bool
}

// Errors returned by session operations.
var (
	ErrNotEstablished = errors.New("bgpsession: session not established")
	ErrClosed         = errors.New("bgpsession: session closed")
	ErrBadPeerAS      = errors.New("bgpsession: unexpected peer AS")
	ErrHoldExpired    = errors.New("bgpsession: hold timer expired")
)

// New creates a session over conn. The handler may be nil. Call Run to
// perform the OPEN exchange and start the receive loop.
func New(conn net.Conn, cfg Config, handler Handler) *Session {
	if handler == nil {
		handler = func(Event) {}
	}
	return &Session{cfg: cfg, conn: conn, handler: handler, state: StateIdle, done: make(chan struct{})}
}

// State returns the current FSM state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// PeerOpen returns the peer's OPEN message once the session reached
// OpenConfirm, else nil.
func (s *Session) PeerOpen() *bgp.Open {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerOpen
}

// Options returns the negotiated encode/decode options (ADD-PATH flags).
// Valid once Established.
func (s *Session) Options() bgp.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// Done is closed when the session terminates.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the terminal error after Done is closed.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

func (s *Session) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
	s.handler(Event{State: st})
}

// Run performs the OPEN/KEEPALIVE handshake and then receives messages
// until the session closes. It blocks; run it in a goroutine. The
// returned error is the reason the session ended (nil on clean Close).
func (s *Session) Run() error {
	open := bgp.NewOpen(s.cfg.LocalAS, uint16(s.cfg.HoldTime/time.Second), s.cfg.BGPID)
	if s.cfg.AddPath {
		open.Capabilities = append(open.Capabilities, bgp.CapAddPath(
			bgp.AddPathTuple{AFI: bgp.AFIIPv4, SAFI: bgp.SAFIUnicast, Mode: bgp.AddPathSendReceive},
			bgp.AddPathTuple{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, Mode: bgp.AddPathSendReceive},
		))
	}
	// Write concurrently with reading the peer's OPEN: over fully
	// synchronous transports (net.Pipe) both speakers write first, so a
	// blocking write here would deadlock the handshake.
	openErr := make(chan error, 1)
	go func() { openErr <- s.write(open) }()
	s.setState(StateOpenSent)

	msg, err := bgp.ReadMessage(s.conn, nil)
	if err != nil {
		return s.close(err)
	}
	if err := <-openErr; err != nil {
		return s.close(err)
	}
	peerOpen, ok := msg.(*bgp.Open)
	if !ok {
		return s.close(fmt.Errorf("bgpsession: expected OPEN, got %v", msg.Type()))
	}
	if s.cfg.ExpectAS != 0 && peerOpen.AS != s.cfg.ExpectAS {
		notif := &bgp.Notification{Code: bgp.NotifOpenMessageError, Subcode: 2 /* bad peer AS */}
		_ = s.write(notif)
		return s.close(ErrBadPeerAS)
	}

	// Negotiate: ADD-PATH applies in a direction only if we offered it
	// and the peer advertised the complementary mode.
	var opts bgp.Options
	if s.cfg.AddPath {
		opts.AddPathIPv4 = peerOpen.HasAddPath(bgp.AFIIPv4, bgp.SAFIUnicast, bgp.AddPathSend|bgp.AddPathReceive)
		opts.AddPathIPv6 = peerOpen.HasAddPath(bgp.AFIIPv6, bgp.SAFIUnicast, bgp.AddPathSend|bgp.AddPathReceive)
	}
	hold := s.cfg.HoldTime
	if peerHold := time.Duration(peerOpen.HoldTime) * time.Second; peerHold < hold {
		hold = peerHold
	}
	s.mu.Lock()
	s.peerOpen = peerOpen
	s.opts = opts
	s.holdTime = hold
	s.mu.Unlock()

	kaErr := make(chan error, 1)
	go func() { kaErr <- s.write(&bgp.Keepalive{}) }()
	s.setState(StateOpenConfirm)

	// Wait for the peer's KEEPALIVE confirming our OPEN.
	msg, err = bgp.ReadMessage(s.conn, &opts)
	if err != nil {
		return s.close(err)
	}
	if err := <-kaErr; err != nil {
		return s.close(err)
	}
	switch m := msg.(type) {
	case *bgp.Keepalive:
	case *bgp.Notification:
		return s.close(m)
	default:
		return s.close(fmt.Errorf("bgpsession: expected KEEPALIVE, got %v", msg.Type()))
	}
	s.setState(StateEstablished)

	stopKeepalive := make(chan struct{})
	var ka sync.WaitGroup
	if hold > 0 {
		ka.Add(1)
		go func() {
			defer ka.Done()
			t := time.NewTicker(hold / 3)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := s.write(&bgp.Keepalive{}); err != nil {
						return
					}
				case <-stopKeepalive:
					return
				}
			}
		}()
	}
	err = s.receiveLoop(hold, &opts)
	close(stopKeepalive)
	// Close the transport before joining the keepalive goroutine: a
	// keepalive write can be blocked mid-send on a peer that stopped
	// reading (hold expiry means exactly that), and only the conn close
	// unblocks it. Waiting first would deadlock Run.
	s.close(err)
	ka.Wait()
	return err
}

func (s *Session) receiveLoop(hold time.Duration, opts *bgp.Options) error {
	for {
		if hold > 0 {
			if err := s.conn.SetReadDeadline(time.Now().Add(hold)); err != nil {
				return err
			}
		}
		msg, err := bgp.ReadMessage(s.conn, opts)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				_ = s.write(&bgp.Notification{Code: bgp.NotifHoldTimerExpired})
				return ErrHoldExpired
			}
			return err
		}
		switch m := msg.(type) {
		case *bgp.Update:
			s.handler(Event{Update: m})
		case *bgp.Keepalive:
			// refreshes the hold timer implicitly via the next deadline
		case *bgp.Notification:
			return m
		default:
			return fmt.Errorf("bgpsession: unexpected %v in Established", msg.Type())
		}
	}
}

// SendUpdate sends an UPDATE; the session must be Established and not
// configured Passive.
func (s *Session) SendUpdate(u *bgp.Update) error {
	return s.SendUpdates([]*bgp.Update{u})
}

// SendUpdates sends a batch of UPDATEs back to back under one writer-lock
// acquisition, preserving order against concurrent senders. The route
// server's batched export path uses it to flush a peer's whole update set
// without interleaving messages from other pipelines.
func (s *Session) SendUpdates(us []*bgp.Update) error {
	if s.cfg.Passive {
		return errors.New("bgpsession: passive session cannot announce")
	}
	s.mu.Lock()
	st, opts := s.state, s.opts
	s.mu.Unlock()
	if st == StateClosed {
		return ErrClosed
	}
	if st != StateEstablished {
		return ErrNotEstablished
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	for _, u := range us {
		if err := bgp.WriteMessage(s.conn, u, &opts); err != nil {
			// The session may have closed between the state check above
			// and the write: close() marks the state before closing the
			// transport, and Close sets closing before the peer can see
			// its NOTIFICATION and hang up, so a sender racing Close
			// always maps the transport's error back to the
			// deterministic ErrClosed.
			if s.closing.Load() || s.State() == StateClosed {
				return ErrClosed
			}
			return err
		}
	}
	return nil
}

// Close terminates the session with an administrative-shutdown
// NOTIFICATION. The write is bounded by a short deadline so Close never
// blocks on a peer that has stopped reading.
func (s *Session) Close() error {
	s.closing.Store(true)
	_ = s.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = s.write(&bgp.Notification{Code: bgp.NotifCease, Subcode: bgp.CeaseAdminShutdown})
	s.close(nil)
	return nil
}

func (s *Session) close(err error) error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.state = StateClosed
		s.closeErr = err
		s.mu.Unlock()
		_ = s.conn.Close()
		s.handler(Event{State: StateClosed, Err: err})
		close(s.done)
	})
	return err
}

func (s *Session) write(m bgp.Message) error { return s.writeOpts(m, nil) }

func (s *Session) writeOpts(m bgp.Message, opts *bgp.Options) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return bgp.WriteMessage(s.conn, m, opts)
}
