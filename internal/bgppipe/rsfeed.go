package bgppipe

import (
	"errors"
	"net/netip"
	"slices"
	"strings"

	"stellar/internal/bgp"
	"stellar/internal/routeserver"
)

// RSFeed bridges the pipe to a routeserver.RouteServer: every RX UPDATE
// is applied with HandleUpdate, and the exports the route server owes
// other members come back out as TX messages addressed per peer — to
// peers up on this pipe only. Peer lifecycle events auto-register
// members (AddPeer) and flush their routes on PeerDown
// (HandleWithdrawAll).
//
// The route server owes exports to every registered member, sessions or
// not (ixp.Join and in-process doors register members too); a member
// with no session on this pipe has nowhere to receive them, so RSFeed
// asks the export set only what the peers up on the pipe are owed. A
// peer is up from its EventPeerUp to its EventPeerDown.
//
// RSFeed calls the route server directly, like every other door into
// it, so whatever subscribes to the route server — an ixp.Build
// exchange's RTBH null routes and mitigation controller — sees the
// wire's changes and exports exactly as it sees in-process ones.
//
// RSFeed runs on the RX line's goroutine, so the route server sees the
// pipe's messages in stream order.
type RSFeed struct {
	// RS is the route server to feed. Required.
	RS *routeserver.RouteServer

	// OnPeerUp is called after a peer auto-registers (fabric ports, MAC
	// assignment, logging — whatever the embedder attaches to member
	// arrival). Optional.
	OnPeerUp func(peer string, as uint32, bgpID netip.Addr)
	// OnPeerDown is called after a departed peer's routes are flushed.
	// Optional.
	OnPeerDown func(peer string, err error)
	// PreUpdate runs before an UPDATE is applied (ixpd's open-IRR lab
	// registration hooks in here). Optional.
	PreUpdate func(peer string, u *bgp.Update)
	// AfterApply runs after each applied message, exports already
	// emitted (ixpd drives its per-event control tick from it). Optional.
	AfterApply func()
	// OnReject receives import-policy rejections. Optional.
	OnReject func(routeserver.Rejection)
	// OnError receives per-message apply errors (unknown peer, decode
	// trouble). Optional.
	OnError func(peer string, err error)

	// up holds the peers up on the pipe, sorted by name (the order emit
	// addresses them in), each with its count of sessions up: normally
	// one, but a reconnecting session's EventPeerUp may overtake its
	// predecessor's EventPeerDown. owed is emit's scratch. Both are
	// touched only on the RX line.
	up   []livePeer
	owed []*bgp.Update
}

type livePeer struct {
	name     string
	sessions int
}

func comparePeer(p livePeer, name string) int { return strings.Compare(p.name, name) }

// Name implements Stage.
func (f *RSFeed) Name() string { return "rsfeed" }

// Attach implements Stage: registers the RX consumer.
func (f *RSFeed) Attach(p *Pipe) error {
	if f.RS == nil {
		return errors.New("RSFeed.RS is nil")
	}
	f.up = nil
	p.OnMsg(DirRX, func(m *Msg) bool {
		switch m.Event {
		case EventPeerUp:
			f.peerUp(m)
			return true
		case EventPeerDown:
			f.peerDown(p, m)
			return true
		}
		u := m.Update()
		if u == nil {
			return true
		}
		if f.PreUpdate != nil {
			f.PreUpdate(m.Peer, u)
		}
		exports, rejections, err := f.RS.HandleUpdate(m.Peer, u)
		if err != nil {
			if f.OnError != nil {
				f.OnError(m.Peer, err)
			}
			return true
		}
		if f.OnReject != nil {
			for _, r := range rejections {
				f.OnReject(r)
			}
		}
		f.emit(p, exports)
		if f.AfterApply != nil {
			f.AfterApply()
		}
		return true
	})
	return nil
}

func (f *RSFeed) peerUp(m *Msg) {
	cfg := routeserver.PeerConfig{Name: m.Peer, ASN: m.PeerAS}
	if open, ok := m.BGP.(*bgp.Open); ok {
		cfg.BGPID = open.BGPID
		if cfg.ASN == 0 {
			cfg.ASN = open.AS
		}
	}
	err := f.RS.AddPeer(cfg)
	if err != nil && !errors.Is(err, routeserver.ErrDuplicatePeer) {
		if f.OnError != nil {
			f.OnError(m.Peer, err)
		}
		return
	}
	if i, ok := slices.BinarySearchFunc(f.up, cfg.Name, comparePeer); ok {
		f.up[i].sessions++
	} else {
		f.up = slices.Insert(f.up, i, livePeer{cfg.Name, 1})
	}
	if f.OnPeerUp != nil {
		f.OnPeerUp(cfg.Name, cfg.ASN, cfg.BGPID)
	}
}

func (f *RSFeed) peerDown(p *Pipe, m *Msg) {
	if i, ok := slices.BinarySearchFunc(f.up, m.Peer, comparePeer); ok {
		if f.up[i].sessions--; f.up[i].sessions == 0 {
			f.up = slices.Delete(f.up, i, i+1)
		}
	}
	exports, err := f.RS.HandleWithdrawAll(m.Peer)
	if err == nil {
		f.emit(p, exports)
	}
	if f.OnPeerDown != nil {
		f.OnPeerDown(m.Peer, m.Err)
	}
	if f.AfterApply != nil {
		f.AfterApply()
	}
}

// emit turns the route server's export set into TX messages, one per
// (peer up on this pipe, UPDATE it is owed), peers by name, each peer's
// UPDATEs withdrawals first. Members without a session here are never
// asked about: there is no one to send their exports to.
func (f *RSFeed) emit(p *Pipe, exports routeserver.Exports) {
	if exports.Len() == 0 {
		return
	}
	for _, peer := range f.up {
		f.owed = exports.To(peer.name, f.owed[:0])
		for _, u := range f.owed {
			if p.Send(DirTX, &Msg{Peer: peer.name, BGP: u}) != nil {
				return // pipe shutting down; remaining exports are moot
			}
		}
	}
	clear(f.owed[:cap(f.owed)]) // keep no UPDATE reachable until the next message
}

// Run implements Stage: RSFeed is a pure consumer, so Run returns
// immediately — the pipe's RX line drives it.
func (f *RSFeed) Run() error { return nil }

// Stop implements Stage.
func (f *RSFeed) Stop() error { return nil }
