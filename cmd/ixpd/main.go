// Command ixpd runs a live, wire-level IXP control plane: a route server
// listening for real BGP-4 sessions over TCP, with a Stellar blackholing
// controller attached to its southbound feed and an emulated switching
// fabric behind it.
//
// Members connect with any BGP speaker that talks RFC 4271 + RFC 1997
// communities (the repository's bgpsession package suffices, see
// examples/quickstart for the in-process variant). Announcing a /32
// tagged with the BLACKHOLE community triggers RTBH; announcing it with
// Stellar's Advanced Blackholing extended community installs fine-
// grained drop/shape rules and logs them.
//
// The daemon is a bgppipe assembly: a listen stage terminates member
// TCP sessions onto the pipe's RX line, an rsfeed stage applies them to
// the route server, and the coalesced exports ride the TX line back
// through the listen stage to the owed members.
//
// Usage:
//
//	ixpd -bgp-listen 127.0.0.1:1790 -asn 6695 -open-irr
//
// With -open-irr the route server auto-registers each peer's first
// announcement origin in the IRR (lab mode); without it, register
// prefixes via -irr AS:prefix flags.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/bgpsession"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/irr"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
)

type irrFlags []string

func (f *irrFlags) String() string     { return strings.Join(*f, ",") }
func (f *irrFlags) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	bgpListen := flag.String("bgp-listen", "127.0.0.1:1790", "TCP address terminating member BGP sessions")
	asn := flag.Uint("asn", 6695, "IXP AS number")
	bgpID := flag.String("bgp-id", "80.81.192.1", "route server BGP identifier")
	blackholeNH := flag.String("blackhole-nexthop", "80.81.193.66", "RTBH next hop")
	openIRR := flag.Bool("open-irr", false, "auto-register announced origins in the IRR (lab mode)")
	tick := flag.Duration("tick", time.Second, "wall-clock interval between control ticks (TTL expiry, change-queue pacing)")
	var irrEntries irrFlags
	flag.Var(&irrEntries, "irr", "IRR entry ASN:prefix (repeatable)")
	flag.Parse()

	d, err := newDaemon(uint32(*asn), *bgpID, *blackholeNH, *openIRR, irrEntries, tick.Seconds())
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *bgpListen)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := d.newPipe(ln)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ixpd: route server AS%d listening on %s (open-irr=%v)", *asn, ln.Addr(), *openIRR)
	// Wall-clock control ticks: one engine control tick per -tick
	// interval, so mitigation TTLs expire and the change queue drains
	// even while no BGP activity arrives.
	go func() {
		t := time.NewTicker(*tick)
		defer t.Stop()
		for range t.C {
			d.tick()
		}
	}()
	pipe.Start()
	if err := pipe.Wait(); err != nil {
		log.Fatal(err)
	}
}

type daemon struct {
	asn     uint32
	bgpID   netip.Addr
	openIRR bool

	rs        *routeserver.RouteServer
	policy    *irr.Policy
	ctl       *mitctl.Controller
	community *mitctl.CommunityChannel
	qosMgr    *core.QoSManager
	fab       *fabric.Fabric
	router    *hw.EdgeRouter

	// ticker drives the daemon's control stage through the engine's
	// real-time façade: each tick advances the virtual clock and drains
	// the mitigation change queue. Ticks come from two cadences — a
	// near-zero-dt tick per southbound route-server event (prompt
	// application without advancing wall-clock budgets), plus the
	// full-Dt wall-clock loop in main so TTLs expire even on an idle
	// exchange — serialized by tickMu (engine.Ticker itself is
	// single-caller).
	ticker *engine.Ticker
	tickMu sync.Mutex

	mu         sync.Mutex
	peerASN    map[string]uint32
	peerMAC    map[string]netpkt.MAC
	nextPort   int
	portIndex  map[string]int
	clock      float64
	loggedErrs int
}

// ControlTick implements engine.Control for the live daemon: advance
// the virtual clock by dt, apply every due configuration change, and
// log what happened — the same control stage a simulated run executes
// on the engine spine, driven here by real time and BGP activity.
func (d *daemon) ControlTick(_ int, dt float64) float64 {
	d.mu.Lock()
	d.clock += dt
	now := d.clock
	d.mu.Unlock()
	if n := d.ctl.Process(now); n > 0 {
		log.Printf("ixpd: applied %d configuration change(s)", n)
	}
	// Log only errors that appeared since the last tick, not the whole
	// accumulated history every time.
	total := d.ctl.ErrorCount()
	d.mu.Lock()
	fresh := total - d.loggedErrs
	d.loggedErrs = total
	d.mu.Unlock()
	if fresh > 0 {
		errs := d.ctl.Errors()
		if fresh > len(errs) {
			fresh = len(errs) // older ones aged out of the window
		}
		for _, e := range errs[len(errs)-fresh:] {
			log.Printf("ixpd: apply error: %s: %v", e.Change, e.Err)
		}
	}
	return now
}

// tick advances the control stage by one full -tick interval; safe
// from any goroutine.
func (d *daemon) tick() {
	d.tickMu.Lock()
	d.ticker.Tick()
	d.tickMu.Unlock()
}

// eventTick runs a control tick for a southbound BGP event. It advances
// the virtual clock by only a millisecond: the event should apply
// promptly, but TTL expiry and change-queue pacing are wall-clock
// budgets owned by the -tick loop — a burst of announcements must not
// fast-forward them.
func (d *daemon) eventTick() {
	d.tickMu.Lock()
	d.ticker.TickDt(0.001)
	d.tickMu.Unlock()
}

// newDaemon wires the daemon; tickSeconds is the -tick interval, the
// simulated seconds one wall-clock control tick advances.
func newDaemon(asn uint32, bgpID, blackholeNH string, openIRR bool, irrEntries []string, tickSeconds float64) (*daemon, error) {
	id, err := netip.ParseAddr(bgpID)
	if err != nil {
		return nil, err
	}
	nh, err := netip.ParseAddr(blackholeNH)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		asn: asn, bgpID: id, openIRR: openIRR,
		policy:    irr.NewPolicy(),
		fab:       fabric.New(),
		peerASN:   make(map[string]uint32),
		peerMAC:   make(map[string]netpkt.MAC),
		portIndex: make(map[string]int),
	}
	for _, e := range irrEntries {
		parts := strings.SplitN(e, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -irr entry %q (want ASN:prefix)", e)
		}
		var entryASN uint32
		if _, err := fmt.Sscanf(parts[0], "%d", &entryASN); err != nil {
			return nil, fmt.Errorf("bad -irr ASN in %q", e)
		}
		p, err := netip.ParsePrefix(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad -irr prefix in %q: %v", e, err)
		}
		d.policy.IRR.Register(entryASN, p)
	}
	d.rs = routeserver.New(routeserver.Config{
		ASN: asn, BlackholeNextHop: nh, Policy: d.policy,
	})
	d.router = hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(1024, hw.RTBHUnitN))
	d.qosMgr = core.NewQoSManager(d.fab, d.router, nil)
	d.ctl = mitctl.New(mitctl.Config{
		Manager: d.qosMgr,
		Validator: &mitctl.IRRValidator{
			Registry: d.policy.IRR,
			ASNOf: func(name string) (uint32, bool) {
				d.mu.Lock()
				defer d.mu.Unlock()
				asn, ok := d.peerASN[name]
				return asn, ok
			},
		},
		MemberMAC: func(name string) (netpkt.MAC, bool) {
			d.mu.Lock()
			defer d.mu.Unlock()
			mac, ok := d.peerMAC[name]
			return mac, ok
		},
	})
	d.community = mitctl.NewCommunityChannel(d.ctl)
	// The mitigation lifecycle is observable: log every transition.
	d.ctl.Subscribe(func(ev mitctl.Event) {
		m := ev.Mitigation
		switch ev.Type {
		case mitctl.EventRejected:
			log.Printf("ixpd: mitigation %s %s (owner %s): %s", m.ID, ev.Type, m.Requester, m.LastError)
		default:
			log.Printf("ixpd: mitigation %s %s (owner %s, %v toward %s)",
				m.ID, ev.Type, m.Requester, m.Action, m.Target)
		}
	})
	d.rs.SetMitigationSource(func() []routeserver.MitigationRow {
		d.mu.Lock()
		now := d.clock
		d.mu.Unlock()
		return mitctl.MitigationRows(d.ctl, now)
	})
	d.ticker = &engine.Ticker{Control: d, Dt: tickSeconds}
	d.rs.Subscribe(func(ev routeserver.ControllerEvent) {
		// The signal enters the lifecycle at the current virtual time;
		// the control tick that follows advances the clock and applies
		// what became due — the paper's one-tick signal-to-config delay,
		// identical to the simulated engine spine.
		d.mu.Lock()
		now := d.clock
		d.mu.Unlock()
		d.community.HandleEvent(ev, now)
		d.eventTick()
	})
	return d, nil
}

// newPipe assembles the daemon's wire pipeline on ln: a listen stage
// terminating member sessions, and an rsfeed stage applying them to
// the route server with the daemon's registration and lab-IRR hooks.
func (d *daemon) newPipe(ln net.Listener) (*bgppipe.Pipe, error) {
	pipe := bgppipe.New(bgppipe.Options{})
	lst := bgppipe.NewListen(ln, bgpsession.Config{LocalAS: d.asn, BGPID: d.bgpID})
	feed := &bgppipe.RSFeed{
		RS: d.rs,
		OnPeerUp: func(peer string, asn uint32, _ netip.Addr) {
			d.registerPeer(peer, asn)
			log.Printf("ixpd: session established with %s", peer)
		},
		OnPeerDown: func(peer string, err error) {
			log.Printf("ixpd: session with %s closed: %v", peer, err)
		},
		PreUpdate: d.preUpdate,
		OnReject: func(r routeserver.Rejection) {
			log.Printf("ixpd: rejected %s from %s: %s", r.Prefix, r.Peer, r.Reason)
		},
		OnError: func(peer string, err error) {
			log.Printf("ixpd: update from %s: %v", peer, err)
		},
	}
	if err := pipe.Attach(lst); err != nil {
		return nil, err
	}
	if err := pipe.Attach(feed); err != nil {
		return nil, err
	}
	return pipe, nil
}

// registerPeer attaches a member's fabric port and hardware slot on
// first sight (the route server registration itself is the rsfeed
// stage's job).
func (d *daemon) registerPeer(name string, asn uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.peerMAC[name]; !known {
		var mac netpkt.MAC
		mac[0] = 0x02
		mac[1] = 0x30
		mac[2] = byte(d.nextPort >> 8)
		mac[3] = byte(d.nextPort)
		if err := d.fab.AddPort(fabric.NewPort(name, mac, 10e9)); err != nil && err != fabric.ErrDuplicatePort {
			log.Printf("ixpd: add port %s: %v", name, err)
		}
		d.portIndex[name] = d.nextPort
		d.qosMgr.SetPortIndex(name, d.nextPort)
		d.peerMAC[name] = mac
		d.nextPort++
	}
	d.peerASN[name] = asn
}

// preUpdate implements the -open-irr lab mode: register the covering
// /24 (or the prefix itself when shorter) of each announcement so
// blackholing /32s validate.
func (d *daemon) preUpdate(_ string, u *bgp.Update) {
	if !d.openIRR {
		return
	}
	d.mu.Lock()
	origin := u.Attrs.OriginAS()
	for _, pp := range u.AllAnnounced() {
		p := pp.Prefix
		if p.Addr().Is4() && p.Bits() > 24 {
			p = netip.PrefixFrom(p.Addr(), 24).Masked()
		}
		if !d.policy.IRR.Authorized(origin, p) {
			d.policy.IRR.Register(origin, p)
		}
	}
	d.mu.Unlock()
}
