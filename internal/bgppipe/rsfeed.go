package bgppipe

import (
	"errors"
	"net/netip"

	"stellar/internal/bgp"
	"stellar/internal/routeserver"
)

// RSFeed bridges the pipe to a routeserver.RouteServer: every RX UPDATE
// is applied with HandleUpdateBatch, and the batched exports the route
// server owes other members come back out as TX messages addressed per
// peer — to peers up on this pipe only. Peer lifecycle events
// auto-register members (AddPeer) and flush their routes on PeerDown
// (HandleWithdrawAll).
//
// The route server owes exports to every registered member, sessions or
// not (ixp.Join and in-process doors register members too); a member
// with no session on this pipe has nowhere to receive them, so RSFeed
// does not build TX messages for it. A peer is up from its EventPeerUp
// to its EventPeerDown.
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

	// up counts each peer's sessions that are up on the pipe: normally
	// one, but a reconnecting session's EventPeerUp may overtake its
	// predecessor's EventPeerDown. Touched only on the RX line.
	up map[string]int
}

// Name implements Stage.
func (f *RSFeed) Name() string { return "rsfeed" }

// Attach implements Stage: registers the RX consumer.
func (f *RSFeed) Attach(p *Pipe) error {
	if f.RS == nil {
		return errors.New("RSFeed.RS is nil")
	}
	f.up = make(map[string]int)
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
		exports, rejections, err := f.RS.HandleUpdateBatch(m.Peer, u)
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
	f.up[cfg.Name]++
	if f.OnPeerUp != nil {
		f.OnPeerUp(cfg.Name, cfg.ASN, cfg.BGPID)
	}
}

func (f *RSFeed) peerDown(p *Pipe, m *Msg) {
	if f.up[m.Peer] > 1 {
		f.up[m.Peer]--
	} else {
		delete(f.up, m.Peer)
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

// emit turns the route server's coalesced export batches into TX
// messages, one per (peer up on this pipe, UPDATE), preserving each
// peer's withdrawals-first batch order. Batches owed to peers without a
// session here are skipped: there is no one to send them to.
func (f *RSFeed) emit(p *Pipe, exports []routeserver.PeerUpdates) {
	for _, e := range exports {
		if f.up[e.Peer] == 0 {
			continue
		}
		for _, u := range e.Updates {
			if p.Send(DirTX, &Msg{Peer: e.Peer, BGP: u}) != nil {
				return // pipe shutting down; remaining exports are moot
			}
		}
	}
}

// Run implements Stage: RSFeed is a pure consumer, so Run returns
// immediately — the pipe's RX line drives it.
func (f *RSFeed) Run() error { return nil }

// Stop implements Stage.
func (f *RSFeed) Stop() error { return nil }
