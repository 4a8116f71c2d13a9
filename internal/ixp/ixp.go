// Package ixp composes the full emulated exchange point: member ASes
// attached to switching-fabric ports, the route server with its
// routing-hygiene policy, the edge-router hardware model, and (when
// enabled) the Stellar controller wired to the route server's southbound
// feed. It adds the one behaviour no single substrate owns: how RTBH
// announcements propagate into member null-routing decisions, i.e. who
// actually stops sending traffic (Section 2.4).
package ixp

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/irr"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
	"stellar/internal/traffic"
)

// Config assembles an IXP.
type Config struct {
	// Name identifies the exchange in multi-IXP compositions
	// (federation gossip provenance, consolidated reports). A
	// single-exchange deployment can leave it empty.
	Name string
	// ASN is the IXP's AS number.
	ASN uint32
	// BlackholeNextHop is the RTBH null-route next hop.
	BlackholeNextHop netip.Addr
	// Members joins the given members to the fabric and route server.
	Members []*member.Member
	// EnableStellar wires the mitigation control plane (a mitctl
	// controller over a QoS manager, fed by the route server).
	EnableStellar bool
	// QueueRate and QueueBurst configure the controller's change queue
	// (0: mitctl.New's defaults, 4.33/s and burst 20).
	QueueRate  float64
	QueueBurst int
	// TuneController adjusts the mitigation controller's configuration
	// — retry/backoff policy, install deadlines, the degradation
	// ladder, fault-injection hooks, a default TTL or a per-member bound
	// on live mitigations — after the standard wiring and
	// before the controller is built. When the hook enables the
	// degradation ladder without a headroom source, Build wires the
	// edge router's.
	TuneController func(*mitctl.Config)
}

// IXP is a fully wired exchange point.
type IXP struct {
	Cfg    Config
	RS     *routeserver.RouteServer
	Fabric *fabric.Fabric
	Router *hw.EdgeRouter
	Policy *irr.Policy
	// Mitigations is the unified mitigation lifecycle controller; every
	// signaling channel (BGP communities via Community, FlowSpec specs,
	// the portal, and the direct RequestMitigation API) compiles into
	// it. Nil unless Config.EnableStellar.
	Mitigations *mitctl.Controller
	// Community is the BGP extended-community signaling adapter feeding
	// Mitigations from the route server's southbound feed.
	Community *mitctl.CommunityChannel

	// qos is the network manager behind Mitigations; Join registers a
	// new member's hardware port index on it.
	qos *core.QoSManager
	// reg is the member registry. A published registry is never
	// written: Build fills one in place and stores it once, Join
	// publishes a clone. Readers load it once (per tick, per call) and
	// take no lock, so the per-offer egress filter and the controller's
	// ASNOf/MemberMAC lookups are race-free against a runtime Join.
	reg    atomic.Pointer[registry]
	joinMu sync.Mutex // serializes Join

	mu    sync.Mutex // guards clock
	clock float64
	// nulls maps a member name to the prefixes the member null-routes in
	// response to accepted RTBH announcements. Only members with at least
	// one null route have an entry, so an empty table means no null route
	// is live anywhere on the exchange. applyExports edits it in place
	// under nullMu's write lock; readers take the read lock.
	nullMu sync.RWMutex
	nulls  map[string][]netip.Prefix
}

// registry is the member population by name and by fabric MAC.
type registry struct {
	members map[string]*member.Member
	byMAC   map[netpkt.MAC]*member.Member
}

// with returns a copy of the registry extended by m.
func (r *registry) with(m *member.Member) *registry {
	next := &registry{members: maps.Clone(r.members), byMAC: maps.Clone(r.byMAC)}
	next.members[m.Name] = m
	next.byMAC[m.MAC] = m
	return next
}

// Build constructs and wires the IXP.
func Build(cfg Config) (*IXP, error) {
	x := &IXP{
		Cfg:    cfg,
		Fabric: fabric.New(),
		Policy: irr.NewPolicy(),
		nulls:  make(map[string][]netip.Prefix),
	}
	reg := &registry{
		members: make(map[string]*member.Member, len(cfg.Members)),
		byMAC:   make(map[netpkt.MAC]*member.Member, len(cfg.Members)),
	}
	x.RS = routeserver.New(routeserver.Config{
		ASN:              cfg.ASN,
		BlackholeNextHop: cfg.BlackholeNextHop,
		Policy:           x.Policy,
	})
	// Members react to every export batch the route server produces,
	// whichever door the UPDATE used: this exchange's methods, or a wire
	// feed (bgppipe.RSFeed) calling the route server directly.
	x.RS.Subscribe(func(ev routeserver.ControllerEvent) { x.applyExports(ev.Exports) })
	x.Router = hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(len(cfg.Members), hw.RTBHUnitN))

	portIndex := make(map[string]int, len(cfg.Members))
	peers := make([]routeserver.PeerConfig, len(cfg.Members))
	for i, m := range cfg.Members {
		if _, dup := reg.members[m.Name]; dup {
			return nil, fmt.Errorf("ixp: duplicate member %s", m.Name)
		}
		reg.members[m.Name] = m
		reg.byMAC[m.MAC] = m
		if err := x.Fabric.AddPort(fabric.NewPort(m.Name, m.MAC, m.PortCapacityBps)); err != nil {
			return nil, err
		}
		peers[i] = routeserver.PeerConfig{Name: m.Name, ASN: m.ASN, BGPID: m.BGPID}
		for _, p := range m.Prefixes {
			x.Policy.IRR.Register(m.ASN, p)
		}
		portIndex[m.Name] = i
	}
	if err := x.RS.AddPeers(peers...); err != nil {
		return nil, err
	}
	x.reg.Store(reg)

	if cfg.EnableStellar {
		x.qos = core.NewQoSManager(x.Fabric, x.Router, portIndex)
		mcfg := mitctl.Config{
			Manager:    x.qos,
			QueueRate:  cfg.QueueRate,
			QueueBurst: cfg.QueueBurst,
			Validator: &mitctl.IRRValidator{
				Registry: x.Policy.IRR,
				ASNOf: func(name string) (uint32, bool) {
					m, ok := x.reg.Load().members[name]
					if !ok {
						return 0, false
					}
					return m.ASN, true
				},
			},
			MemberMAC: func(name string) (netpkt.MAC, bool) {
				m, ok := x.reg.Load().members[name]
				if !ok {
					return netpkt.MAC{}, false
				}
				return m.MAC, true
			},
		}
		if cfg.TuneController != nil {
			cfg.TuneController(&mcfg)
		}
		if mcfg.Degrade.Enabled && mcfg.Degrade.Headroom == nil {
			mcfg.Degrade.Headroom = x.Router.Headroom
		}
		x.Mitigations = mitctl.New(mcfg)
		x.Community = mitctl.NewCommunityChannel(x.Mitigations)
		x.RS.Subscribe(func(ev routeserver.ControllerEvent) {
			x.Community.HandleEvent(ev, x.Clock())
		})
	}
	return x, nil
}

// Join attaches one more member to the running exchange — what Build
// does for each of Config.Members, for a member that arrives later
// (cmd/ixpd joins one per established BGP session): fabric port, route
// server peer, IRR prefixes, a fresh hardware port with its index at
// the network manager, and the member registry. A
// peer the route server already knows under the member's name is not an
// error (the rsfeed stage registers the peer before it reports the
// session up); a member name or MAC already on the exchange is.
func (x *IXP) Join(m *member.Member) error {
	x.joinMu.Lock()
	defer x.joinMu.Unlock()
	reg := x.reg.Load()
	if _, dup := reg.members[m.Name]; dup {
		return fmt.Errorf("ixp: duplicate member %s", m.Name)
	}
	if other, dup := reg.byMAC[m.MAC]; dup {
		return fmt.Errorf("ixp: member %s: MAC %s belongs to %s", m.Name, m.MAC, other.Name)
	}
	if err := x.Fabric.AddPort(fabric.NewPort(m.Name, m.MAC, m.PortCapacityBps)); err != nil {
		return err
	}
	err := x.RS.AddPeer(routeserver.PeerConfig{Name: m.Name, ASN: m.ASN, BGPID: m.BGPID})
	if err != nil && !errors.Is(err, routeserver.ErrDuplicatePeer) {
		return err
	}
	for _, p := range m.Prefixes {
		x.Policy.IRR.Register(m.ASN, p)
	}
	idx := x.Router.AddPort()
	if x.qos != nil {
		x.qos.SetPortIndex(m.Name, idx)
	}
	// A new member has no null route yet, so the null-route table stays
	// as it is: it changes only when an export reaches the member.
	x.reg.Store(reg.with(m))
	return nil
}

// PeerDown models a member's BGP session loss: the route server flushes
// everything the member announced and the withdrawals propagate to the
// population (RTBH null routes lift). The member stays registered — a
// later re-announcement (session recovery) restores its routes. This is
// the control-plane leg of a session flap (faults.KindSessionFlap).
func (x *IXP) PeerDown(memberName string) error {
	if _, err := x.Member(memberName); err != nil {
		return err
	}
	_, err := x.RS.HandleWithdrawAll(memberName)
	return err
}

// RequestMitigation is the direct (API/portal) signaling channel: the
// spec enters the lifecycle at the current simulation time and its
// rules take effect when the next tick processes the change queue —
// exactly like a BGP-signaled request.
func (x *IXP) RequestMitigation(spec mitctl.Spec) (mitctl.Mitigation, error) {
	if x.Mitigations == nil {
		return mitctl.Mitigation{}, fmt.Errorf("ixp: mitigation control plane not enabled")
	}
	return x.Mitigations.Request(spec, x.Clock())
}

// WithdrawMitigation retracts a mitigation by ID, enforcing ownership.
func (x *IXP) WithdrawMitigation(id, requester string) error {
	if x.Mitigations == nil {
		return fmt.Errorf("ixp: mitigation control plane not enabled")
	}
	return x.Mitigations.Withdraw(id, requester, x.Clock())
}

// Name returns the exchange's configured name ("" for a standalone
// deployment that never set one).
func (x *IXP) Name() string { return x.Cfg.Name }

// Clock returns the current simulation time in seconds.
func (x *IXP) Clock() float64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.clock
}

// Member returns a member by name.
func (x *IXP) Member(name string) (*member.Member, error) {
	if m, ok := x.reg.Load().members[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("ixp: unknown member %s", name)
}

// MemberByMAC resolves a fabric source MAC to its member.
func (x *IXP) MemberByMAC(mac netpkt.MAC) (*member.Member, bool) {
	m, ok := x.reg.Load().byMAC[mac]
	return m, ok
}

// MemberFilter returns the engine.Config.MemberFilter that counts only
// registered member MACs toward ActivePeers — the filter every
// engine-on-IXP run wants; leaving Config.MemberFilter nil counts every
// stray source MAC.
func (x *IXP) MemberFilter() func(netpkt.MAC) bool {
	return func(mac netpkt.MAC) bool {
		_, ok := x.reg.Load().byMAC[mac]
		return ok
	}
}

// PeersOf converts members into traffic-generator peers, using the first
// address of each member's first prefix as the representative source.
func PeersOf(members []*member.Member) []traffic.Peer {
	peers := make([]traffic.Peer, 0, len(members))
	for _, m := range members {
		src := netip.Addr{}
		if len(m.Prefixes) > 0 {
			src = m.Prefixes[0].Addr().Next()
		}
		peers = append(peers, traffic.Peer{Name: m.Name, MAC: m.MAC, SrcIP: src})
	}
	return peers
}

// Announce sends a BGP announcement from a member to the route server:
// prefix, communities, and Advanced Blackholing rule signals. Its exports
// reach the member population (RTBH honoring) through the route-server
// subscription Build made.
//
// The specs parameter is the legacy rule-signaling façade: each spec is
// encoded as an Advanced Blackholing extended community and compiled
// into the mitigation lifecycle by the community channel, exactly as if
// the member had built the announcement itself. New code that does not
// need the BGP leg should declare a mitctl.Spec and call
// RequestMitigation; both paths produce identical installed state.
func (x *IXP) Announce(memberName string, prefix netip.Prefix, communities []bgp.Community, specs []core.RuleSpec) error {
	m, err := x.Member(memberName)
	if err != nil {
		return err
	}
	attrs := bgp.PathAttrs{
		Origin:      bgp.OriginIGP,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.ASN}}},
		NextHop:     m.BGPID, // router address on the peering LAN
		Communities: communities,
	}
	for _, s := range specs {
		ec, err := s.Encode()
		if err != nil {
			return err
		}
		attrs.ExtCommunities = append(attrs.ExtCommunities, ec)
	}
	u := &bgp.Update{Attrs: attrs}
	if prefix.Addr().Is4() {
		u.NLRI = []bgp.PathPrefix{{Prefix: prefix}}
	} else {
		// IPv6 reachability rides MP-BGP (RFC 4760); the next hop is the
		// member's router on the v6 peering LAN.
		u.Attrs.NextHop = netip.Addr{}
		u.Attrs.MPReach = &bgp.MPReach{
			AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
			NextHop: netip.AddrFrom16(netip.MustParseAddr("2001:db8:ff::1").As16()),
			NLRI:    []bgp.PathPrefix{{Prefix: prefix}},
		}
	}
	_, rejections, err := x.RS.HandleUpdateBatch(memberName, u)
	if err != nil {
		return err
	}
	if len(rejections) > 0 {
		return fmt.Errorf("ixp: announcement rejected: %s", rejections[0].Reason)
	}
	return nil
}

// Withdraw retracts a member's announcement.
func (x *IXP) Withdraw(memberName string, prefix netip.Prefix) error {
	u := &bgp.Update{}
	if prefix.Addr().Is4() {
		u.Withdrawn = []bgp.PathPrefix{{Prefix: prefix}}
	} else {
		u.Attrs.MPUnreach = &bgp.MPUnreach{
			AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
			NLRI: []bgp.PathPrefix{{Prefix: prefix}},
		}
	}
	_, _, err := x.RS.HandleUpdateBatch(memberName, u)
	return err
}

// HandleWireUpdate feeds one parsed wire-format BGP update from a
// member into the route server, exactly like Announce/Withdraw do for
// built updates. Policy rejections are not errors: a replayed capture
// keeps playing past routes the hygiene policy filters, matching how a
// real route server treats a misbehaving peer. This is the control-plane
// entry point for capture replay (engine.ReplayConfig.Apply).
func (x *IXP) HandleWireUpdate(memberName string, u *bgp.Update) error {
	if _, err := x.Member(memberName); err != nil {
		return err
	}
	_, _, err := x.RS.HandleUpdateBatch(memberName, u)
	return err
}

// applyExports models each member's reaction to route server exports:
// members that honor RTBH install (or remove) null routes for
// blackholed prefixes. Members that do not honor them ignore the signal
// — the ~70% of Section 2.4. Build subscribes it to the route server, so
// it sees every export batch whichever door the UPDATE used.
//
// It edits the table in place under the write lock, and writes a
// member's entry back only when one of its routes changed.
func (x *IXP) applyExports(exports []routeserver.PeerUpdates) {
	members := x.reg.Load().members
	x.nullMu.Lock()
	defer x.nullMu.Unlock()
	for _, e := range exports {
		m, ok := members[e.Peer]
		if !ok {
			continue
		}
		routes := x.nulls[m.Name]
		changed := false
		withdraw := func(p netip.Prefix) {
			if i := slices.Index(routes, p); i >= 0 {
				routes, changed = slices.Delete(routes, i, i+1), true
			}
		}
		install := func(p netip.Prefix) {
			if !slices.Contains(routes, p) {
				routes, changed = append(routes, p), true
			}
		}
		for _, u := range e.Updates {
			// The UPDATE is shared by all its targets: read it in place.
			for _, w := range u.Withdrawn {
				withdraw(w.Prefix)
			}
			if u.Attrs.MPUnreach != nil {
				for _, w := range u.Attrs.MPUnreach.NLRI {
					withdraw(w.Prefix)
				}
			}
			// Seeing the /32 or /128 at all requires accepting more
			// specifics; acting on it requires blackhole support.
			if !m.HonorsRTBH() {
				continue
			}
			// Each family's NLRI rides with its own next hop: NEXT_HOP for
			// IPv4, MP_REACH's (the blackholing IP's IPv4-mapped form) for
			// IPv6.
			if x.blackholes(u.Attrs.NextHop) {
				for _, a := range u.NLRI {
					install(a.Prefix)
				}
			}
			if mp := u.Attrs.MPReach; mp != nil && x.blackholes(mp.NextHop) {
				for _, a := range mp.NLRI {
					install(a.Prefix)
				}
			}
		}
		if !changed {
			continue
		}
		if len(routes) == 0 {
			delete(x.nulls, m.Name)
		} else {
			x.nulls[m.Name] = routes
		}
	}
}

// blackholes reports whether next hop nh is the exchange's blackholing
// IP, in either family's form.
func (x *IXP) blackholes(nh netip.Addr) bool {
	return x.Cfg.BlackholeNextHop.IsValid() && nh.Unmap() == x.Cfg.BlackholeNextHop
}

// NullRouted reports whether source member name currently null-routes
// dst (i.e. its traffic to dst dies at the IXP's null interface).
func (x *IXP) NullRouted(name string, dst netip.Addr) bool {
	x.nullMu.RLock()
	defer x.nullMu.RUnlock()
	return anyContains(x.nulls[name], dst)
}

// NullRouteCount returns how many members installed a null route
// covering dst.
func (x *IXP) NullRouteCount(dst netip.Addr) int {
	x.nullMu.RLock()
	defer x.nullMu.RUnlock()
	n := 0
	for _, routes := range x.nulls {
		if anyContains(routes, dst) {
			n++
		}
	}
	return n
}

// ControlTick implements engine.Control: it advances the simulation
// clock by dt and applies everything that became due — the mitigation
// controller's paced change queue drains and TTLs expire. The engine's
// control step drives it once per tick on the pipeline spine, strictly
// ordered between the previous tick's egress and this tick's; the tick
// argument is informational (the IXP's clock is the authority).
func (x *IXP) ControlTick(_ int, dt float64) float64 {
	x.mu.Lock()
	x.clock += dt
	now := x.clock
	x.mu.Unlock()
	if x.Mitigations != nil {
		// Pending configuration changes apply and due TTLs expire before
		// traffic egresses: the controller's clock is the tick loop.
		x.Mitigations.Process(now)
	}
	return now
}

// EgressTick implements engine.DataPlane: one tick of the data plane
// only — RTBH null routes filter traffic from honoring members, then
// the fabric switches the rest — without touching the clock or the
// control plane.
//
// The null-route table is read in place, with no copy, under its read
// lock, held across the filter only and not across the fabric tick; an
// export that lands mid-tick waits for the filter to finish. While no
// null route is live anywhere the offers go to the fabric as they are,
// and each port's OfferedBytes is the PresentedBytes its egress summed
// in offer order. Otherwise the filter runs first (see
// filterNullRoutes). Each port's egress inside fabric.Tick fans across
// the supplied runner (the engine passes its shared worker pool; nil
// runs everything on the caller's goroutine), and per-port results are
// merged by name, so the outcome is deterministic.
func (x *IXP) EgressTick(r fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]engine.PortReport, error) {
	x.nullMu.RLock()
	if len(x.nulls) == 0 {
		x.nullMu.RUnlock()
		stats, err := x.Fabric.Tick(r, offers, dt, sink)
		if err != nil {
			return nil, err
		}
		reports := make(map[string]engine.PortReport, len(stats.PerPort))
		for name, res := range stats.PerPort {
			reports[name] = engine.PortReport{OfferedBytes: res.PresentedBytes, Result: res}
		}
		return reports, nil
	}
	filtered, reports := x.filterNullRoutes(r, offers)
	x.nullMu.RUnlock()
	stats, err := x.Fabric.Tick(r, filtered, dt, sink)
	if err != nil {
		return nil, err
	}
	for portName, res := range stats.PerPort {
		rep := reports[portName]
		rep.Result = res
		reports[portName] = rep
	}
	return reports, nil
}

// filterNullRoutes drops the offers whose source member null-routes
// their destination, port by port across the runner, and reports each
// port's offered and nulled bytes. The caller holds the null-route
// table's read lock. The member registry is loaded once, so the
// per-offer check takes no lock (a member that joins mid-tick counts
// from the next one), and a port's offer slice is copied only when
// something dies there.
func (x *IXP) filterNullRoutes(r fabric.Runner, offers fabric.TickOffers) (fabric.TickOffers, map[string]engine.PortReport) {
	byMAC, nulls := x.reg.Load().byMAC, x.nulls
	names := make([]string, 0, len(offers))
	for name := range offers {
		names = append(names, name)
	}
	sort.Strings(names)
	reps := make([]engine.PortReport, len(names))
	kept := make([][]fabric.Offer, len(names))
	nulled := func(o *fabric.Offer) bool {
		src, ok := byMAC[o.Flow.SrcMAC]
		return ok && anyContains(nulls[src.Name], o.Flow.Dst)
	}
	filterPort := func(i int) {
		rep := engine.PortReport{}
		os := offers[names[i]]
		// First pass: account the offered load and detect null-routed
		// offers; the second, copying pass runs only when one was found.
		hit := false
		for j := range os {
			o := &os[j]
			rep.OfferedBytes += o.Bytes
			if nulled(o) {
				rep.NulledBytes += o.Bytes
				hit = true
			}
		}
		reps[i] = rep
		kept[i] = os
		if !hit {
			return
		}
		keep := make([]fabric.Offer, 0, len(os))
		for j := range os {
			if o := &os[j]; !nulled(o) {
				keep = append(keep, *o)
			}
		}
		kept[i] = keep
	}
	if r == nil {
		for i := range names {
			filterPort(i)
		}
	} else {
		r.Run(len(names), func(_, i int) { filterPort(i) })
	}

	reports := make(map[string]engine.PortReport, len(names))
	filtered := make(fabric.TickOffers, len(names))
	for i, name := range names {
		filtered[name] = kept[i]
		reports[name] = reps[i]
	}
	return filtered, reports
}

// anyContains reports whether any prefix covers dst.
func anyContains(prefixes []netip.Prefix, dst netip.Addr) bool {
	for _, p := range prefixes {
		if p.Contains(dst) {
			return true
		}
	}
	return false
}
