// Package routeserver implements the IXP's multilateral-peering route
// server (Section 4.3, Figure 6): eBGP sessions with every member,
// routing-hygiene import filtering against IRR and bogon databases, the
// RTBH next-hop rewrite for announcements carrying the BLACKHOLE
// community, export control via IXP policy communities, and the
// southbound feed to Stellar's blackholing controller, which sees every
// accepted path (the ADD-PATH bypass of best-path selection).
//
// The package exposes an in-process message-level API (HandleUpdate /
// HandleWithdrawAll); cmd/ixpd wires it to real TCP BGP sessions via
// bgppipe's Listen and RSFeed stages. Whoever calls it, subscribers see
// every accepted change with its exports.
//
// The update path is a parallel pipeline: HandleUpdate may be called
// concurrently from any number of peer sessions. Import-policy checks run
// lock-free against the immutable peer registry, RIB maintenance and
// best-path recomputation take only the prefix's shard lock inside
// rib.Table, and exports are coalesced: one UPDATE carries every
// coalescible prefix instead of one message per (peer, prefix) pair. A
// message's export set holds each UPDATE once, with whom it is owed to;
// only a consumer with somewhere to send (bgppipe.RSFeed) or a member
// reaction to run (ixp's null routes) works out what a member is owed.
//
// Ordering contract: mutations on one prefix serialize at its RIB shard,
// so every export set reflects a consistent best-path transition. The
// pipeline does not sequence delivery across concurrent inbound updates,
// though — if two sessions race on the same prefix, a receiver may see
// the two exports in either order and transiently hold the older best
// path until the prefix next changes (BGP's usual eventual consistency;
// the caller may serialize delivery per prefix if it needs more).
package routeserver

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"stellar/internal/bgp"
	"stellar/internal/irr"
	"stellar/internal/rib"
)

// PeerConfig describes one member's route server session.
type PeerConfig struct {
	Name  string
	ASN   uint32
	BGPID netip.Addr
}

// Rejection reports one prefix refused by the import policy.
type Rejection struct {
	Peer   string
	Prefix netip.Prefix
	Reason string
}

// PeerUpdates is what one member is owed as a result of one inbound
// message, withdrawals first: HandleUpdateBatch's per-member layout.
type PeerUpdates struct {
	Peer    string
	Updates []*bgp.Update
}

// ControllerEvent is the southbound feed to the blackholing controller:
// one accepted path change, with the route server's ADD-PATH identifier
// already assigned so the controller can hold the same prefix from
// different members simultaneously.
type ControllerEvent struct {
	Peer      string
	PeerAS    uint32
	PathID    uint32
	Announced []netip.Prefix
	Withdrawn []netip.Prefix
	// Attrs are the UPDATE's attributes, shared with the paths the route
	// server stored for Announced and with every subscriber: read them,
	// do not modify them.
	Attrs bgp.PathAttrs
	// Exports is the export set the change produced — the value
	// HandleUpdate or HandleWithdrawAll returns, shared with every
	// subscriber and the caller: read it, do not modify its UPDATEs.
	// Members' reactions to exports (RTBH null routes) hang off it, so
	// they follow the route server whichever way the UPDATE arrived.
	Exports Exports
}

// Subscriber consumes controller events.
type Subscriber func(ControllerEvent)

// Config parameterizes the route server.
type Config struct {
	// ASN is the IXP's AS number (used in policy communities).
	ASN uint32
	// BlackholeNextHop is the IXP's null-route next hop installed on
	// RTBH announcements before re-export.
	BlackholeNextHop netip.Addr
	// Policy is the routing-hygiene import policy.
	Policy *irr.Policy
}

// The longest prefixes accepted without a blackholing signal, per common
// IXP practice: /24 for IPv4 and /48 for IPv6. A blackholing
// announcement may be as specific as a host route.
const (
	maxPlainPrefixLen  = 24
	maxPlainPrefixLen6 = 48
)

// registry is the immutable peer/subscriber view the update pipeline
// reads lock-free. AddPeers and Subscribe publish a fresh copy.
type registry struct {
	peers map[string]*peerState
	order []string // peer names in join order (stable path IDs)
	// sorted holds the peers by name — the order HandleUpdateBatch lays
	// its per-member batches out in, so it never sorts.
	sorted []*peerState
	subs   []Subscriber
}

// RouteServer is the IXP route server.
type RouteServer struct {
	cfg Config

	reg     atomic.Pointer[registry]
	writeMu sync.Mutex // serializes registry writers

	table *rib.Table

	rejMu    sync.Mutex
	rejected []Rejection // the most recent maxRetainedRejections, oldest first
	rejTotal int
}

// maxRetainedRejections bounds the rejection log, so a peer that keeps
// announcing filtered routes cannot grow a long-running route server's
// heap: on overflow the older half is dropped.
const maxRetainedRejections = 4096

type peerState struct {
	cfg    PeerConfig
	pathID uint32
}

// Errors.
var (
	ErrUnknownPeer   = errors.New("routeserver: unknown peer")
	ErrDuplicatePeer = errors.New("routeserver: duplicate peer")
)

// New creates a route server.
func New(cfg Config) *RouteServer {
	rs := &RouteServer{cfg: cfg, table: rib.New()}
	rs.reg.Store(&registry{peers: make(map[string]*peerState)})
	return rs
}

// AddPeer registers a member session. Path IDs on the controller feed are
// assigned in join order and never reused.
func (rs *RouteServer) AddPeer(cfg PeerConfig) error { return rs.AddPeers(cfg) }

// AddPeers registers member sessions in the given order, exactly like
// one AddPeer call each, but publishes the registry once: registering n
// members costs O(n log n) instead of n registry copies. A name that is
// already registered, or appears twice in cfgs, returns ErrDuplicatePeer
// and registers nothing.
func (rs *RouteServer) AddPeers(cfgs ...PeerConfig) error {
	rs.writeMu.Lock()
	defer rs.writeMu.Unlock()
	old := rs.reg.Load()
	next := &registry{
		peers:  make(map[string]*peerState, len(old.peers)+len(cfgs)),
		order:  slices.Clone(old.order),
		sorted: slices.Clone(old.sorted),
		subs:   old.subs,
	}
	for name, ps := range old.peers {
		next.peers[name] = ps
	}
	for _, cfg := range cfgs {
		if _, ok := next.peers[cfg.Name]; ok {
			return ErrDuplicatePeer
		}
		next.order = append(next.order, cfg.Name)
		ps := &peerState{cfg: cfg, pathID: uint32(len(next.order))}
		next.peers[cfg.Name] = ps
		next.sorted = append(next.sorted, ps)
	}
	slices.SortFunc(next.sorted, func(a, b *peerState) int { return strings.Compare(a.cfg.Name, b.cfg.Name) })
	rs.reg.Store(next)
	return nil
}

// Peers returns the registered peer names, in join order.
func (rs *RouteServer) Peers() []string {
	return append([]string(nil), rs.reg.Load().order...)
}

// Table exposes the route server's RIB (all accepted paths from all
// peers).
func (rs *RouteServer) Table() *rib.Table { return rs.table }

// Subscribe attaches a controller feed subscriber; every accepted path
// change is delivered, bypassing best-path selection, together with the
// exports it produced. Subscribers run on the caller's goroutine, in
// subscription order, before HandleUpdate or HandleWithdrawAll returns.
func (rs *RouteServer) Subscribe(s Subscriber) {
	rs.writeMu.Lock()
	defer rs.writeMu.Unlock()
	old := rs.reg.Load()
	next := *old
	next.subs = append(append([]Subscriber(nil), old.subs...), s)
	rs.reg.Store(&next)
}

// Rejections returns the import-policy rejections, oldest first (the
// most recent maxRetainedRejections of them; RejectionCount reports the
// lifetime total).
func (rs *RouteServer) Rejections() []Rejection {
	rs.rejMu.Lock()
	defer rs.rejMu.Unlock()
	return append([]Rejection(nil), rs.rejected...)
}

// RejectionCount returns the lifetime count of refused prefixes,
// unaffected by the Rejections retention window.
func (rs *RouteServer) RejectionCount() int {
	rs.rejMu.Lock()
	defer rs.rejMu.Unlock()
	return rs.rejTotal
}

// IsBlackhole reports whether attrs request blackholing: the RFC 7999
// BLACKHOLE community or the IXP-specific variant (IXP_ASN:666).
func (rs *RouteServer) IsBlackhole(attrs *bgp.PathAttrs) bool {
	return attrs.HasCommunity(bgp.CommunityBlackhole) ||
		attrs.HasCommunity(bgp.MakeCommunity(uint16(rs.cfg.ASN), 666))
}

// HandleUpdate processes one UPDATE from a member: import policy, RIB
// maintenance, best-path recomputation, export generation and the
// controller feed. The returned export set holds what the route server
// sends to the other members, each UPDATE once (Exports.To lays out one
// member's share). It is safe for concurrent use from any number of peer
// sessions.
func (rs *RouteServer) HandleUpdate(peer string, u *bgp.Update) (Exports, []Rejection, error) {
	reg := rs.reg.Load()
	ps, ok := reg.peers[peer]
	if !ok {
		return Exports{}, nil, ErrUnknownPeer
	}

	eb := exportBuilder{out: Exports{rs: rs, reg: reg, from: peer}}
	var rejections []Rejection
	var acceptedAnn, acceptedWdr []netip.Prefix

	// Withdrawals first (RFC 4271: withdrawn routes precede NLRI).
	for _, pp := range u.AllWithdrawn() {
		key := rib.PathKey{Prefix: pp.Prefix, Peer: peer, PathID: ps.pathID}
		removed, tr := rs.table.RemoveWithBest(key)
		if !removed {
			continue // not in table: ignore
		}
		acceptedWdr = append(acceptedWdr, pp.Prefix)
		eb.bestChanged(tr, nil)
	}

	originAS := u.Attrs.OriginAS()
	if originAS == 0 {
		originAS = ps.cfg.ASN
	}
	// The UPDATE's attributes are cloned once, on first use: the one
	// clone is every stored path's Attrs and the controller event's.
	var attrs bgp.PathAttrs
	cloned := false
	for _, pp := range u.AllAnnounced() {
		if reason, ok := rs.importCheck(ps, pp.Prefix, originAS, &u.Attrs); !ok {
			rejections = append(rejections, Rejection{Peer: peer, Prefix: pp.Prefix, Reason: reason})
			continue
		}
		key := rib.PathKey{Prefix: pp.Prefix, Peer: peer, PathID: ps.pathID}
		if !cloned {
			attrs, cloned = u.Attrs.Clone(), true
		}
		added, tr := rs.table.AddWithBest(key, ps.cfg.ASN, attrs)
		acceptedAnn = append(acceptedAnn, pp.Prefix)
		eb.bestChanged(tr, added)
	}

	if len(rejections) > 0 {
		rs.rejMu.Lock()
		rs.rejTotal += len(rejections)
		rs.rejected = append(rs.rejected, rejections...)
		if n := len(rs.rejected); n > maxRetainedRejections {
			rs.rejected = append(rs.rejected[:0:0], rs.rejected[n-maxRetainedRejections/2:]...)
		}
		rs.rejMu.Unlock()
	}

	exports := eb.out
	if len(reg.subs) > 0 && (len(acceptedAnn) > 0 || len(acceptedWdr) > 0) {
		if !cloned {
			attrs = u.Attrs.Clone()
		}
		ev := ControllerEvent{
			Peer:      peer,
			PeerAS:    ps.cfg.ASN,
			PathID:    ps.pathID,
			Announced: acceptedAnn,
			Withdrawn: acceptedWdr,
			Attrs:     attrs,
			Exports:   exports,
		}
		for _, s := range reg.subs {
			s(ev)
		}
	}
	return exports, rejections, nil
}

// HandleUpdateBatch is HandleUpdate with the export set laid out per
// member: one entry per member owed anything, sorted by name, each
// holding Exports.To's share. It stays only for the benchmark's
// routeserver probe, which counts the entries' UPDATEs, and goes with
// that probe (ROADMAP 21); nothing else lays an export set out per
// member.
func (rs *RouteServer) HandleUpdateBatch(peer string, u *bgp.Update) ([]PeerUpdates, []Rejection, error) {
	exports, rejections, err := rs.HandleUpdate(peer, u)
	return exports.perPeer(), rejections, err
}

// HandleWithdrawAll processes a session teardown: every path from the
// peer is withdrawn (BGP implicit withdraw on session loss).
func (rs *RouteServer) HandleWithdrawAll(peer string) (Exports, error) {
	reg := rs.reg.Load()
	ps, ok := reg.peers[peer]
	if !ok {
		return Exports{}, ErrUnknownPeer
	}
	removed, changes := rs.table.RemovePeerWithBest(peer)
	eb := exportBuilder{out: Exports{rs: rs, reg: reg, from: peer}}
	for _, tr := range changes {
		eb.bestChanged(tr, nil)
	}

	exports := eb.out
	if len(reg.subs) > 0 && len(removed) > 0 {
		withdrawn := make([]netip.Prefix, len(removed))
		for i, p := range removed {
			withdrawn[i] = p.Key.Prefix
		}
		ev := ControllerEvent{Peer: peer, PeerAS: ps.cfg.ASN, PathID: ps.pathID, Withdrawn: withdrawn, Exports: exports}
		for _, s := range reg.subs {
			s(ev)
		}
	}
	return exports, nil
}

// importCheck applies the import policy of Figure 6. It reads only the
// immutable peer state and the (internally synchronized) hygiene
// databases, so it runs without any route-server lock.
func (rs *RouteServer) importCheck(ps *peerState, prefix netip.Prefix, originAS uint32, attrs *bgp.PathAttrs) (string, bool) {
	maxPlain := maxPlainPrefixLen
	maxHost := 32
	if prefix.Addr().Is6() {
		maxPlain = maxPlainPrefixLen6
		maxHost = 128
	}
	if prefix.Bits() > maxPlain {
		// More specific than allowed: only blackholing announcements may
		// pass, up to host routes.
		if !rs.IsBlackhole(attrs) && !HasAdvancedBlackholeSignal(attrs) {
			return fmt.Sprintf("prefix more specific than /%d without blackhole community", maxPlain), false
		}
		if prefix.Bits() > maxHost {
			return "invalid prefix length", false
		}
	}
	if rs.cfg.Policy != nil {
		if v := rs.cfg.Policy.Check(prefix, originAS); !v.Accept {
			return v.Reason, false
		}
	}
	// The announcing peer must be on the path origin or an authorized
	// reseller; at an IXP the first AS must be the peer's.
	if len(attrs.ASPath) > 0 {
		first := attrs.ASPath[0]
		if first.Type == bgp.ASSequence && len(first.ASNs) > 0 && first.ASNs[0] != ps.cfg.ASN {
			return fmt.Sprintf("AS path does not start with peer AS %d", ps.cfg.ASN), false
		}
	}
	return "", true
}

// Exports is the export set one inbound message produced: every UPDATE
// the route server owes, each once, with the path whose policy
// communities pick its targets, judged against the peer registry the
// message arrived under. Len and Update read each UPDATE once; To lays
// out what one member is owed. An UPDATE is shared by all its targets and
// every reader: read it, do not modify it. The zero value owes nothing.
type Exports struct {
	rs   *RouteServer
	reg  *registry
	from string // the peer whose message produced the set

	// exports holds every UPDATE owed, in the order each peer receives
	// the ones it is owed: withdrawals first.
	exports []export
}

// export is one UPDATE and whom it is owed to: the peers best's policy
// communities export to, or, for the coalesced withdraw (best nil), every
// peer but the sender.
type export struct {
	u    *bgp.Update
	best *rib.Path
}

// Len returns the number of UPDATEs in the set.
func (x Exports) Len() int { return len(x.exports) }

// Update returns the set's i-th UPDATE, 0 <= i < Len().
func (x Exports) Update(i int) *bgp.Update { return x.exports[i].u }

// To appends to dst the UPDATEs owed to peer, in the order the peer
// receives them, and returns the extended slice: dst itself for a peer
// owed nothing or not registered when the message arrived.
func (x Exports) To(peer string, dst []*bgp.Update) []*bgp.Update {
	if len(x.exports) == 0 {
		return dst
	}
	ps, ok := x.reg.peers[peer]
	if !ok {
		return dst
	}
	for _, e := range x.exports {
		if x.owes(ps, e) {
			dst = append(dst, e.u)
		}
	}
	return dst
}

// owes reports whether e is owed to ps.
func (x Exports) owes(ps *peerState, e export) bool {
	if e.best == nil {
		return ps.cfg.Name != x.from
	}
	return x.rs.exportsTo(e.best, ps)
}

// perPeer lays the set out per member, sorted by name, for
// HandleUpdateBatch. A first pass counts what each peer is owed, so the
// result and the one backing array every peer's Updates are carved from
// are allocated once, at their final size.
func (x Exports) perPeer() []PeerUpdates {
	if len(x.exports) == 0 {
		return nil
	}
	peers, owed := 0, 0
	for _, ps := range x.reg.sorted {
		n := 0
		for _, e := range x.exports {
			if x.owes(ps, e) {
				n++
			}
		}
		if n > 0 {
			peers++
			owed += n
		}
	}
	if peers == 0 {
		return nil
	}
	out := make([]PeerUpdates, 0, peers)
	flat := make([]*bgp.Update, 0, owed)
	for _, ps := range x.reg.sorted {
		start := len(flat)
		for _, e := range x.exports {
			if x.owes(ps, e) {
				flat = append(flat, e.u)
			}
		}
		if end := len(flat); end > start {
			out = append(out, PeerUpdates{Peer: ps.cfg.Name, Updates: flat[start:end:end]})
		}
	}
	return out
}

// exportBuilder accumulates the export set produced while processing one
// inbound message. Three coalescing streams keep it compact: withdrawals
// merge into one UPDATE owed to every peer but the sender, and
// announcements whose new best path is the path just added merge into one
// shared UPDATE per address family (they all carry the inbound message's
// attributes, so their targets are identical too). Best-path changes that
// promote a different pre-existing path get individual UPDATEs.
//
// The builder records each UPDATE once, with the path whose policy picks
// its targets, and never walks the members: a message costs the same
// allocations and bytes however many members the exchange has.
type exportBuilder struct {
	out Exports

	// Coalesced withdrawals, owed to every peer but the sender: a prefix
	// only vanishes with its last path, which was the sender's own.
	wdr *bgp.Update

	// Coalesced announcements of the just-added path, per family.
	ann4, ann6 *bgp.Update
}

// bestChanged folds one best-path transition into the export set. added
// is the path installed by the current message, or nil for withdrawals.
func (eb *exportBuilder) bestChanged(tr rib.BestChange, added *rib.Path) {
	if !tr.Changed() {
		return // best path unchanged: nothing to export
	}
	switch {
	case tr.New == nil:
		eb.coalesceWithdraw(tr.Prefix)
	case tr.New == added:
		eb.coalesceAnnounce(tr.Prefix, added)
	default:
		// A pre-existing path was promoted (the old best worsened or went
		// away): export it on its own.
		eb.add(eb.out.rs.buildExportUpdate(tr.Prefix, tr.New), tr.New)
	}
}

func (eb *exportBuilder) add(u *bgp.Update, best *rib.Path) {
	eb.out.exports = append(eb.out.exports, export{u: u, best: best})
}

// coalesceWithdraw merges the prefix into the withdraw UPDATE shared by
// every target except the sender.
func (eb *exportBuilder) coalesceWithdraw(prefix netip.Prefix) {
	if eb.wdr == nil {
		eb.wdr = &bgp.Update{}
		eb.add(eb.wdr, nil)
	}
	u := eb.wdr
	if prefix.Addr().Is4() {
		u.Withdrawn = append(u.Withdrawn, bgp.PathPrefix{Prefix: prefix})
	} else {
		if u.Attrs.MPUnreach == nil {
			u.Attrs.MPUnreach = &bgp.MPUnreach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast}
		}
		u.Attrs.MPUnreach.NLRI = append(u.Attrs.MPUnreach.NLRI, bgp.PathPrefix{Prefix: prefix})
	}
}

// coalesceAnnounce merges the prefix into the shared announce UPDATE for
// its family, creating it on first use.
func (eb *exportBuilder) coalesceAnnounce(prefix netip.Prefix, best *rib.Path) {
	shared := &eb.ann4
	if !prefix.Addr().Is4() {
		shared = &eb.ann6
	}
	switch u := *shared; {
	case u == nil:
		*shared = eb.out.rs.buildExportUpdate(prefix, best)
		eb.add(*shared, best)
	case prefix.Addr().Is4():
		u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: prefix})
	default:
		u.Attrs.MPReach.NLRI = append(u.Attrs.MPReach.NLRI, bgp.PathPrefix{Prefix: prefix})
	}
}

// buildExportUpdate renders the UPDATE announcing best for prefix.
func (rs *RouteServer) buildExportUpdate(prefix netip.Prefix, best *rib.Path) *bgp.Update {
	attrs := best.Attrs.Clone()
	// RTBH: the route server sets the next hop to the IXP's blackholing
	// IP so that accepting members forward the traffic to the null
	// interface (Section 2.2, Figure 2b).
	if rs.IsBlackhole(&attrs) && rs.cfg.BlackholeNextHop.IsValid() {
		if prefix.Addr().Is4() {
			attrs.NextHop = rs.cfg.BlackholeNextHop
		} else if attrs.MPReach != nil {
			// An IPv6 MP_REACH carries a 16-byte next hop: the
			// blackholing IP's IPv4-mapped form.
			attrs.MPReach.NextHop = netip.AddrFrom16(rs.cfg.BlackholeNextHop.As16())
		}
		attrs.AddCommunity(bgp.CommunityNoExport)
	}
	u := &bgp.Update{Attrs: attrs}
	if prefix.Addr().Is4() {
		u.NLRI = []bgp.PathPrefix{{Prefix: prefix}}
		u.Attrs.MPReach = nil
	} else {
		var nh netip.Addr
		if attrs.MPReach != nil {
			nh = attrs.MPReach.NextHop
		}
		u.Attrs.MPReach = &bgp.MPReach{
			AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
			NextHop: nh,
			NLRI:    []bgp.PathPrefix{{Prefix: prefix}},
		}
		u.NLRI = nil
	}
	return u
}

// exportsTo evaluates the IXP policy communities on best for one peer:
//
//	(0, IXP_ASN)     announce to no one
//	(0, peer_ASN)    do not announce to peer
//	(IXP_ASN, peer_ASN) announce to peer (whitelist mode once present)
//
// Without policy communities the path is exported to every peer except
// its announcer — Figure 3(b)'s dominant "All" case. A standard
// community's value has 16 bits, so it can name only a 2-byte ASN: a
// peer whose ASN exceeds 65535 is never singled out by (0, peer) or
// (IXP, peer), whatever its ASN's low 16 bits.
func (rs *RouteServer) exportsTo(best *rib.Path, ps *peerState) bool {
	if ps.cfg.Name == best.Key.Peer {
		return false
	}
	ixp := uint16(rs.cfg.ASN)
	named := ps.cfg.ASN <= math.MaxUint16
	asn16 := uint16(ps.cfg.ASN)
	blockAll, blocked, whitelist, allowed := false, false, false, false
	for _, c := range best.Attrs.Communities {
		switch {
		case c.ASN() == 0 && c.Value() == ixp:
			blockAll = true
		case c.ASN() == 0:
			blocked = blocked || named && c.Value() == asn16
		case c.ASN() == ixp && c.Value() != 666:
			whitelist = true
			allowed = allowed || named && c.Value() == asn16
		}
	}
	if whitelist {
		return allowed
	}
	return !blockAll && !blocked // blocked: an "All-k" exclusion
}

// HasAdvancedBlackholeSignal reports whether attrs carry Stellar's
// Advanced Blackholing extended community (package core defines the
// payload semantics; the route server only needs to recognize it for the
// more-specific import exception).
func HasAdvancedBlackholeSignal(attrs *bgp.PathAttrs) bool {
	for _, e := range attrs.ExtCommunities {
		if e.Type() == bgp.ExtTypeExperimental && e.SubType() == bgp.ExtSubTypeAdvBlackhole {
			return true
		}
	}
	return false
}
