// Command ixpd runs a live, wire-level IXP control plane: the exchange
// ixp.Build assembles (route server, routing-hygiene policy, mitigation
// controller, hardware model, emulated fabric) behind a TCP front that
// terminates real BGP-4 sessions. A /32 announced with the BLACKHOLE
// community triggers RTBH; with Stellar's Advanced Blackholing extended
// community it installs fine-grained drop/shape rules, which are logged.
//
// The daemon adds only the wire front: a bgppipe listen stage puts
// member sessions on the pipe's RX line, an rsfeed stage applies them
// to the exchange's route server, and the coalesced exports ride the TX
// line back to the owed members. Each established session joins its
// member to the exchange (ixp.Join). The control plane ticks on two
// cadences: 1 ms after every applied UPDATE, so a signal takes effect
// promptly, and a full -tick interval on the wall clock, which owns TTL
// expiry and change-queue pacing. SIGINT or SIGTERM stops the daemon.
//
//	ixpd -bgp-listen 127.0.0.1:1790 -asn 6695 -open-irr
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/bgpsession"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
)

type irrEntry struct {
	asn    uint32
	prefix netip.Prefix
}

type options struct {
	listen             string
	asn                uint32
	bgpID, blackholeNH netip.Addr
	openIRR            bool
	tick               time.Duration
	irr                []irrEntry
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ixpd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "bgp-listen", "127.0.0.1:1790", "TCP address terminating member BGP sessions")
	asn := fs.Uint64("asn", 6695, "IXP AS number")
	fs.TextVar(&o.bgpID, "bgp-id", netip.MustParseAddr("80.81.192.1"), "route server BGP identifier")
	fs.TextVar(&o.blackholeNH, "blackhole-nexthop", netip.MustParseAddr("80.81.193.66"), "RTBH next hop")
	fs.BoolVar(&o.openIRR, "open-irr", false, "auto-register announced origins in the IRR (lab mode)")
	fs.DurationVar(&o.tick, "tick", time.Second, "wall-clock interval between control ticks (TTL expiry, change-queue pacing)")
	fs.Func("irr", "IRR entry ASN:prefix (repeatable)", func(s string) error {
		as, pfx, _ := strings.Cut(s, ":")
		n, err := strconv.ParseUint(as, 10, 32)
		if err != nil {
			return fmt.Errorf("bad ASN %q", as)
		}
		p, err := netip.ParsePrefix(pfx)
		if err != nil {
			return err
		}
		o.irr = append(o.irr, irrEntry{uint32(n), p})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *asn == 0 || *asn > math.MaxUint32 {
		return o, fmt.Errorf("-asn %d: want 1..%d", *asn, uint32(math.MaxUint32))
	}
	o.asn = uint32(*asn)
	if o.tick <= 0 {
		return o, fmt.Errorf("-tick %v: want a positive interval", o.tick)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		log.Fatal(err)
	}
	d, err := newDaemon(o, ln)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ixpd: route server AS%d listening on %s (open-irr=%v)", o.asn, ln.Addr(), o.openIRR)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.run(ctx); err != nil {
		log.Fatal(err)
	}
}

// daemon is the exchange plus its wire front.
type daemon struct {
	x      *ixp.IXP
	tick   time.Duration // the wall-clock cadence
	pipe   *bgppipe.Pipe
	tickMu sync.Mutex // serializes the two tick cadences
}

// newDaemon builds the exchange and attaches the wire front on ln.
func newDaemon(o options, ln net.Listener) (*daemon, error) {
	x, err := ixp.Build(ixp.Config{ASN: o.asn, BlackholeNextHop: o.blackholeNH, EnableStellar: true})
	if err != nil {
		return nil, err
	}
	for _, e := range o.irr {
		x.Policy.IRR.Register(e.asn, e.prefix)
	}
	x.Mitigations.Subscribe(func(ev mitctl.Event) { // every lifecycle transition
		m := ev.Mitigation
		log.Printf("ixpd: mitigation %s %s (owner %s, %v toward %s) %s", m.ID, ev.Type, m.Requester, m.Action, m.Target, m.LastError)
	})
	d := &daemon{x: x, tick: o.tick, pipe: bgppipe.New(bgppipe.Options{})}
	feed := &bgppipe.RSFeed{
		RS:         x.RS,
		OnPeerUp:   d.peerUp,
		OnPeerDown: func(peer string, err error) { log.Printf("ixpd: session with %s closed: %v", peer, err) },
		// ixp.Build's southbound subscription entered the signal at the
		// current simulation time; this tick applies it. 1 ms is too
		// little for a burst to fast-forward the wall-clock budgets.
		AfterApply: func() { d.controlTick(0.001) },
		OnReject:   func(r routeserver.Rejection) { log.Printf("ixpd: rejected %s from %s: %s", r.Prefix, r.Peer, r.Reason) },
		OnError:    func(peer string, err error) { log.Printf("ixpd: update from %s: %v", peer, err) },
	}
	if o.openIRR {
		feed.PreUpdate = d.openIRR
	}
	for _, st := range []bgppipe.Stage{bgppipe.NewListen(ln, bgpsession.Config{LocalAS: o.asn, BGPID: o.bgpID}), feed} {
		if err := d.pipe.Attach(st); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// run serves until ctx is done or the pipe fails, driving the wall-clock
// control ticks meanwhile; no goroutine outlives it.
func (d *daemon) run(ctx context.Context) error {
	d.pipe.Start()
	done := make(chan error, 1)
	go func() { done <- d.pipe.Wait() }()
	t := time.NewTicker(d.tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			d.pipe.Stop()
			return <-done
		case err := <-done:
			return err
		case <-t.C:
			d.controlTick(d.tick.Seconds())
		}
	}
}

// controlTick advances the control plane by dt simulated seconds.
func (d *daemon) controlTick(dt float64) {
	d.tickMu.Lock()
	d.x.ControlTick(0, dt)
	d.tickMu.Unlock()
}

// peerUp joins a member to the exchange on its first session; a
// returning member keeps its port. The fabric MAC is derived from the ASN.
func (d *daemon) peerUp(peer string, asn uint32, bgpID netip.Addr) {
	if _, err := d.x.Member(peer); err != nil {
		mac := netpkt.MAC{0x02, 0x30, byte(asn >> 24), byte(asn >> 16), byte(asn >> 8), byte(asn)}
		m := &member.Member{Name: peer, ASN: asn, MAC: mac, BGPID: bgpID, PortCapacityBps: 10e9}
		if err := d.x.Join(m); err != nil {
			log.Printf("ixpd: join %s: %v", peer, err)
			return
		}
	}
	log.Printf("ixpd: session established with %s", peer)
}

// openIRR is the -open-irr lab mode: register each announcement's
// covering /24 (or the prefix itself when shorter) so /32s validate.
func (d *daemon) openIRR(_ string, u *bgp.Update) {
	origin := u.Attrs.OriginAS()
	for _, pp := range u.AllAnnounced() {
		p := pp.Prefix
		if p.Addr().Is4() && p.Bits() > 24 {
			p = netip.PrefixFrom(p.Addr(), 24).Masked()
		}
		if !d.x.Policy.IRR.Authorized(origin, p) {
			d.x.Policy.IRR.Register(origin, p)
		}
	}
}
