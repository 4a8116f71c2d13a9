// Package bgppipe is the wire-format BGP message pipeline: one typed
// stream of *bgp.Message values with direction and per-message metadata,
// processed by composable stages in the style of bgpfix/bgpipe. The
// exchange runs two stages:
//
//	      RX (toward the route server)
//	listen ──────────► rsfeed ──► RouteServer
//	   ▲                  │
//	   └── TX (exports) ◄─┘
//
// Listen terminates the members' TCP sessions and injects what they
// send as RX messages; RSFeed applies them to the route server and
// emits the coalesced exports owed to peers up on the pipe back as TX
// messages, which Listen routes to the addressed session. Each
// direction is an ordered callback line driven by one goroutine, so
// stage processing within a direction is serialized and deterministic.
//
// Captures do not ride the pipe: MRTScanner is the RecordSource that
// engine.ReplayEvents schedules onto the tick clock, and wire faults
// filter that source (faults.(*Injector).FilterSource), not the pipe.
package bgppipe

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"stellar/internal/bgp"
)

// Dir is a message's direction through the pipe.
type Dir uint8

// Directions. RX flows toward the local route server (messages received
// from peers); TX flows away from it (exports owed to peers).
const (
	DirRX Dir = iota
	DirTX
	numDirs
)

func (d Dir) String() string {
	switch d {
	case DirRX:
		return "RX"
	case DirTX:
		return "TX"
	default:
		return fmt.Sprintf("Dir(%d)", uint8(d))
	}
}

// Event is a session lifecycle marker traveling the pipe alongside BGP
// messages, so consumers learn about peers appearing and vanishing in
// stream order.
type Event uint8

// Events.
const (
	EventNone Event = iota
	// EventPeerUp announces a peer: a session reached Established (the
	// message carries the peer's OPEN).
	EventPeerUp
	// EventPeerDown retires a peer: its session closed. Err carries the
	// terminal session error, if any.
	EventPeerDown
)

func (e Event) String() string {
	switch e {
	case EventNone:
		return "none"
	case EventPeerUp:
		return "peer-up"
	case EventPeerDown:
		return "peer-down"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// Msg is one element of the message stream: a BGP message (or a pure
// lifecycle event) plus the metadata every stage needs — which peer it
// belongs to, when it happened, and which way it flows.
type Msg struct {
	// Dir is the message's direction (set by Pipe.Send).
	Dir Dir
	// Seq is the per-direction sequence number (set by Pipe.Send).
	Seq uint64
	// Peer names the session the message belongs to. On TX it addresses
	// the target peer; empty broadcasts to every attached session.
	Peer string
	// PeerAS identifies the peer when known (established sessions
	// carry it; pure exports may not).
	PeerAS uint32
	// Time is the message timestamp: the receive time unless the
	// producer set one (Send stamps the current time on a zero Time).
	Time time.Time
	// BGP is the message itself; nil for pure lifecycle events.
	BGP bgp.Message
	// Event marks session lifecycle transitions (EventNone for ordinary
	// messages).
	Event Event
	// Err carries the terminal session error on EventPeerDown.
	Err error
}

// Update returns the message as an *bgp.Update, or nil.
func (m *Msg) Update() *bgp.Update {
	u, _ := m.BGP.(*bgp.Update)
	return u
}

func (m *Msg) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s #%d", m.Dir, m.Seq)
	if m.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", m.Peer)
	}
	if m.Event != EventNone {
		fmt.Fprintf(&b, " event=%s", m.Event)
	}
	if m.BGP != nil {
		fmt.Fprintf(&b, " %v", m.BGP.Type())
	}
	return b.String()
}

// Handler processes one message on a direction line. Returning false
// drops the message: callbacks attached later never see it. Handlers on
// one line run on a single goroutine in attach order, so they need no
// internal locking against each other.
type Handler func(*Msg) bool

// Stage is one processing element attached to a pipe. Attach registers
// the stage's handlers and validates its configuration; Run produces
// messages (blocking until the stage is done producing — a listener
// shut down and its sessions closed; stages that only consume return
// immediately); Stop asks a blocked Run to return.
//
// Stages must finish every Send before Run returns: once all stage Runs
// have returned the pipe closes its lines.
type Stage interface {
	Name() string
	Attach(p *Pipe) error
	Run() error
	Stop() error
}

// Options parameterizes a pipe.
type Options struct {
	// Buffer is the per-direction channel depth (default 64). A full
	// line blocks Send — backpressure to the producing session.
	Buffer int
}

// ErrClosed is returned by Send on a stopped line: the pipe retired the
// direction after every stage's Run returned. Producers treat it as
// "stop producing", never as data loss — a well-behaved stage finishes
// its sends before Run returns.
var ErrClosed = errors.New("bgppipe: pipe closed")

// line is one direction's bounded queue plus its ordered handlers.
type line struct {
	ch       chan *Msg
	done     chan struct{} // closed: the line accepts no further Send
	handlers []Handler
	seq      uint64
	mu       sync.Mutex // guards seq against concurrent Send
}

// Pipe carries the two directed message streams and the attached
// stages. Build with New, Attach stages, then Start; Wait blocks until
// every stage's Run returned and both lines drained.
type Pipe struct {
	lines  [numDirs]*line
	stages []Stage

	started  bool
	runErrs  []error
	errMu    sync.Mutex
	runWG    sync.WaitGroup // stage Run goroutines
	lineWG   sync.WaitGroup // line drain goroutines
	stopOnce sync.Once
}

// New creates an empty pipe.
func New(opts Options) *Pipe {
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	p := &Pipe{}
	for d := range p.lines {
		p.lines[d] = &line{ch: make(chan *Msg, opts.Buffer), done: make(chan struct{})}
	}
	return p
}

// OnMsg attaches a handler to one direction, after every handler
// already attached. Stages call it from Attach.
func (p *Pipe) OnMsg(dir Dir, h Handler) {
	if p.started {
		panic("bgppipe: OnMsg after Start")
	}
	l := p.lines[dir]
	l.handlers = append(l.handlers, h)
}

// Attach adds a stage to the pipe, giving it the chance to register
// handlers. Stages run in attach order on each line.
func (p *Pipe) Attach(s Stage) error {
	if p.started {
		return errors.New("bgppipe: Attach after Start")
	}
	if err := s.Attach(p); err != nil {
		return fmt.Errorf("bgppipe: attach %s: %w", s.Name(), err)
	}
	p.stages = append(p.stages, s)
	return nil
}

// Send injects a message into its direction's line, stamping direction
// sequence (and the current time when the message carries none). It
// blocks when the line is full, and returns ErrClosed — instead of
// blocking forever — when the line was already retired (every stage's
// Run returned and the pipe moved to shutdown).
func (p *Pipe) Send(dir Dir, m *Msg) error {
	l := p.lines[dir]
	select {
	case <-l.done:
		return ErrClosed
	default:
	}
	m.Dir = dir
	l.mu.Lock()
	l.seq++
	m.Seq = l.seq
	l.mu.Unlock()
	if m.Time.IsZero() {
		m.Time = time.Now()
	}
	select {
	case l.ch <- m:
		return nil
	case <-l.done:
		return ErrClosed
	}
}

// Start launches the line goroutines and every stage's Run. The RX line
// closes once all stage Runs returned; the TX line closes after the RX
// line drained (RX handlers — the rsfeed — are TX producers).
func (p *Pipe) Start() {
	if p.started {
		panic("bgppipe: Start twice")
	}
	p.started = true

	rxDone := make(chan struct{})
	p.lineWG.Add(2)
	go func() {
		defer p.lineWG.Done()
		defer close(rxDone)
		p.lines[DirRX].drain()
	}()
	go func() {
		defer p.lineWG.Done()
		p.lines[DirTX].drain()
	}()

	for _, s := range p.stages {
		p.runWG.Add(1)
		go func(s Stage) {
			defer p.runWG.Done()
			if err := s.Run(); err != nil {
				p.errMu.Lock()
				p.runErrs = append(p.runErrs, fmt.Errorf("%s: %w", s.Name(), err))
				p.errMu.Unlock()
			}
		}(s)
	}

	// Closer: when every producer finished, retire the lines in
	// dependency order. The channels are never closed — lines retire by
	// closing done, so a straggler Send gets ErrClosed instead of a
	// panic or a forever-block.
	go func() {
		p.runWG.Wait()
		close(p.lines[DirRX].done)
		<-rxDone
		close(p.lines[DirTX].done)
	}()
}

// drain runs the line's handler chain over every queued message until
// the line retires, then flushes what is still buffered. Every message
// accepted by Send before retirement is processed: stage Runs finish
// their sends before done closes (runWG.Wait happens-before).
func (l *line) drain() {
	for {
		select {
		case m := <-l.ch:
			l.handle(m)
		case <-l.done:
			for {
				select {
				case m := <-l.ch:
					l.handle(m)
				default:
					return
				}
			}
		}
	}
}

// handle runs one message through the handler chain.
func (l *line) handle(m *Msg) {
	for _, h := range l.handlers {
		if !h(m) {
			break
		}
	}
}

// Stop asks every stage to stop producing. It does not wait; call Wait.
func (p *Pipe) Stop() {
	p.stopOnce.Do(func() {
		for _, s := range p.stages {
			if err := s.Stop(); err != nil {
				p.errMu.Lock()
				p.runErrs = append(p.runErrs, fmt.Errorf("%s: stop: %w", s.Name(), err))
				p.errMu.Unlock()
			}
		}
	})
}

// Wait blocks until every stage's Run returned and both lines drained,
// then returns the joined stage errors (nil for a clean run).
func (p *Pipe) Wait() error {
	p.runWG.Wait()
	p.lineWG.Wait()
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return errors.Join(p.runErrs...)
}
