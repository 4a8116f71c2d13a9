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
// peer. Peer lifecycle events auto-register members (AddPeer) and flush
// their routes on PeerDown (HandleWithdrawAll).
//
// RSFeed runs on the RX line's goroutine, so the route server sees the
// pipe's messages in stream order — a replayed MRT file produces the
// same RIB transitions on every run.
type RSFeed struct {
	// RS is the route server to feed. Required.
	RS *routeserver.RouteServer

	// Resync replays the full-table export owed to a peer whenever it
	// comes up (routeserver.ExportsTo), so a session reconnecting after
	// a flap converges without waiting for incremental churn. The burst
	// rides the TX line in sorted-prefix order, before any export the
	// peer's own first UPDATE triggers.
	Resync bool

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
}

// Name implements Stage.
func (f *RSFeed) Name() string { return "rsfeed" }

// Attach implements Stage: registers the RX consumer.
func (f *RSFeed) Attach(p *Pipe) error {
	if f.RS == nil {
		return errors.New("RSFeed.RS is nil")
	}
	p.OnMsg(DirRX, func(m *Msg) bool {
		switch m.Event {
		case EventPeerUp:
			f.peerUp(p, m)
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

func (f *RSFeed) peerUp(p *Pipe, m *Msg) {
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
	if f.OnPeerUp != nil {
		f.OnPeerUp(cfg.Name, cfg.ASN, cfg.BGPID)
	}
	if f.Resync {
		ups, err := f.RS.ExportsTo(m.Peer)
		if err != nil {
			if f.OnError != nil {
				f.OnError(m.Peer, err)
			}
			return
		}
		for _, u := range ups {
			if p.Send(DirTX, &Msg{Peer: m.Peer, BGP: u}) != nil {
				return // pipe shutting down
			}
		}
	}
}

func (f *RSFeed) peerDown(p *Pipe, m *Msg) {
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
// messages, one per (peer, UPDATE), preserving each peer's
// withdrawals-first batch order.
func (f *RSFeed) emit(p *Pipe, exports []routeserver.PeerUpdates) {
	for _, e := range exports {
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
