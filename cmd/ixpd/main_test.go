package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgpsession"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		args    string
		wantErr string // substring; "" means the parse succeeds
	}{
		{"", ""},
		{"-asn 4294967295", ""},
		{"-asn 4294967297", "want 1..4294967295"}, // used to wrap to AS1
		{"-asn 0", "want 1..4294967295"},
		{"-irr 64512:10.0.0.0/8 -irr 64513:2001:db8::/32", ""},
		{"-irr 64512junk:10.0.0.0/8", `bad ASN "64512junk"`}, // Sscanf("%d") took the 64512
		{"-irr 4294967296:10.0.0.0/8", "bad ASN"},
		{"-irr 64512", "invalid value"},
		{"-irr 64512:10.0.0.0", "invalid value"},
		{"-tick 0s", "positive interval"},
		{"-bgp-id nonsense", "invalid value"},
	}
	for _, c := range cases {
		o, err := parseFlags(strings.Fields(c.args))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%q: %v", c.args, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%q: err %v, want %q", c.args, err, c.wantErr)
		case c.wantErr == "" && o.asn == 0:
			t.Errorf("%q: no ASN parsed", c.args)
		}
	}
	o, err := parseFlags(strings.Fields("-irr 64512:10.0.0.0/8 -irr 64513:2001:db8::/32"))
	if err != nil || len(o.irr) != 2 || o.irr[1] != (irrEntry{64513, netip.MustParsePrefix("2001:db8::/32")}) {
		t.Fatalf("irr entries: %+v, %v", o.irr, err)
	}
}

// startDaemon runs the whole daemon — what main runs — on a loopback
// listener. The returned stop cancels it the way a signal does and
// checks that run returns cleanly.
func startDaemon(t *testing.T, args string) (d *daemon, addr string, stop func()) {
	t.Helper()
	o, err := parseFlags(strings.Fields(args))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if d, err = newDaemon(o, ln); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.run(ctx) }()
	return d, ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop")
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitWithin(t, 3*time.Second, what, cond)
}

func waitWithin(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// dial connects a member's BGP session and waits until the daemon has
// joined it to the exchange.
func dial(t *testing.T, d *daemon, addr string, asn uint32, id string, handler bgpsession.Handler) *bgpsession.Session {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := bgpsession.New(conn, bgpsession.Config{LocalAS: asn, BGPID: netip.MustParseAddr(id)}, handler)
	go s.Run()
	waitFor(t, "session", func() bool { return s.State() == bgpsession.StateEstablished })
	name := fmt.Sprintf("AS%d", asn)
	waitFor(t, name+" to join", func() bool { _, err := d.x.Member(name); return err == nil })
	return s
}

func announce(asn uint32, p netip.Prefix, comms []bgp.Community, ecs ...bgp.ExtCommunity) *bgp.Update {
	return &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:         bgp.OriginIGP,
			ASPath:         []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{asn}}},
			NextHop:        netip.MustParseAddr("80.81.192.12"),
			Communities:    comms,
			ExtCommunities: ecs,
		},
		NLRI: []bgp.PathPrefix{{Prefix: p}},
	}
}

// TestDaemonEndToEnd boots the daemon on a loopback listener, connects
// two members over real TCP BGP sessions, and exercises both services:
// RTBH (the /32 with the BLACKHOLE community reaches the other member
// with the null next hop) and Advanced Blackholing (the extended
// community installs a QoS rule on the announcing member's port, and
// the exchange's data plane then drops exactly the attack traffic —
// the paper's signal-to-drop on the shipped binary's wiring).
func TestDaemonEndToEnd(t *testing.T) {
	d, addr, stop := startDaemon(t, "-open-irr")
	defer stop()

	received := make(chan *bgp.Update, 8)
	observer := dial(t, d, addr, 64513, "10.0.0.13", func(e bgpsession.Event) {
		if e.Update != nil {
			received <- e.Update
		}
	})
	defer observer.Close()
	victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
	defer victim.Close()

	host := netip.MustParsePrefix("100.10.10.10/32")
	ec, err := core.DropUDPSrcPort(123).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.SendUpdate(announce(64512, host, []bgp.Community{bgp.CommunityBlackhole}, ec)); err != nil {
		t.Fatal(err)
	}

	// RTBH propagation: the observer sees the /32 with the blackhole
	// next hop.
	select {
	case got := <-received:
		if len(got.NLRI) != 1 || got.NLRI[0].Prefix != host {
			t.Fatalf("export: %+v", got)
		}
		if got.Attrs.NextHop != netip.MustParseAddr("80.81.193.66") {
			t.Fatalf("next hop: %v", got.Attrs.NextHop)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no export received")
	}

	// The looking glass shows the accepted route, flagged blackhole
	// (the RIB keeps the announced next hop; the RTBH rewrite happens
	// on export).
	glass := d.x.RS.Glass(host)
	if len(glass) != 1 || !glass[0].Best || glass[0].Peer != "AS64512" || !glass[0].Blackhole {
		t.Fatalf("looking glass: %+v", glass)
	}

	// Advanced Blackholing: the exchange's mitigation controller
	// installed a drop rule on the victim's fabric port.
	port, err := d.x.Fabric.PortByName("AS64512")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rule install", func() bool { return port.RuleCount() == 1 })
	if got := len(d.x.Mitigations.Active()); got != 1 {
		t.Fatalf("live mitigations: %d (controller errors: %v)", got, d.x.Mitigations.GlassErrors())
	}

	// Signal-to-drop: an NTP reflection flow and a web flow from the
	// observer toward the victim; the data plane drops exactly the NTP
	// bytes.
	src, _ := d.x.Member("AS64513")
	flow := func(proto netpkt.IPProto, srcPort uint16) *netpkt.FlowKey {
		return &netpkt.FlowKey{SrcMAC: src.MAC, Src: netip.MustParseAddr("198.51.100.1"),
			Dst: host.Addr(), Proto: proto, SrcPort: srcPort, DstPort: 443}
	}
	const ntpBytes, webBytes = 4e6, 1e6
	offers := fabric.TickOffers{"AS64512": {
		{Flow: flow(netpkt.ProtoUDP, 123), Bytes: ntpBytes, Packets: 1e4},
		{Flow: flow(netpkt.ProtoTCP, 50123), Bytes: webBytes, Packets: 1e3},
	}}
	egress := func() fabric.TickResult {
		reps, err := d.x.EgressTick(nil, offers, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return reps["AS64512"].Result
	}
	if res := egress(); res.RuleDroppedBytes != ntpBytes || res.DeliveredBytes != webBytes {
		t.Fatalf("mitigated egress: dropped %v delivered %v, want %v / %v",
			res.RuleDroppedBytes, res.DeliveredBytes, float64(ntpBytes), float64(webBytes))
	}

	// Session teardown withdraws the member's routes and rules, and the
	// NTP bytes are forwarded again.
	victim.Close()
	waitFor(t, "rule removal", func() bool { return port.RuleCount() == 0 })
	if res := egress(); res.RuleDroppedBytes != 0 || res.DeliveredBytes != ntpBytes+webBytes {
		t.Fatalf("egress after teardown: dropped %v delivered %v", res.RuleDroppedBytes, res.DeliveredBytes)
	}
}

// TestRTBHOverTCPReachesDataPlane pins the paper's baseline on the
// shipped binary's wiring: a blackholed /32 announced over a member's
// TCP session null-routes exactly the honoring members' traffic to it in
// the exchange's egress tick, and a withdrawal over TCP lifts the null
// route, as does session teardown after a re-announcement.
func TestRTBHOverTCPReachesDataPlane(t *testing.T) {
	d, addr, stop := startDaemon(t, "-open-irr")
	defer stop()

	// The honoring member joins before its session comes up; peerUp
	// keeps a member the exchange already knows. The other members
	// join on their sessions and do not honor RTBH.
	honoring := &member.Member{
		Name: "AS64514", ASN: 64514, MAC: netpkt.MAC{0x02, 0x30, 0, 0, 0xfc, 0x02},
		BGPID: netip.MustParseAddr("10.0.0.14"), PortCapacityBps: 10e9,
		AcceptsMoreSpecifics: true, ActsOnBlackhole: true,
	}
	if err := d.x.Join(honoring); err != nil {
		t.Fatal(err)
	}
	honorer := dial(t, d, addr, 64514, "10.0.0.14", nil)
	defer honorer.Close()
	bystander := dial(t, d, addr, 64513, "10.0.0.13", nil)
	defer bystander.Close()
	victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
	defer victim.Close()
	nonHonoring, err := d.x.Member("AS64513")
	if err != nil {
		t.Fatal(err)
	}

	host := netip.MustParsePrefix("100.10.10.10/32")
	flow := func(src netpkt.MAC) *netpkt.FlowKey {
		return &netpkt.FlowKey{SrcMAC: src, Src: netip.MustParseAddr("198.51.100.1"),
			Dst: host.Addr(), Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	}
	const honoringBytes, nonHonoringBytes = 3e6, 2e6
	offers := fabric.TickOffers{"AS64512": {
		{Flow: flow(honoring.MAC), Bytes: honoringBytes, Packets: 1e3},
		{Flow: flow(nonHonoring.MAC), Bytes: nonHonoringBytes, Packets: 1e3},
	}}
	egress := func(phase string, nulled, delivered float64) {
		t.Helper()
		reps, err := d.x.EgressTick(nil, offers, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep := reps["AS64512"]; rep.NulledBytes != nulled || rep.Result.DeliveredBytes != delivered {
			t.Fatalf("%s: nulled %v delivered %v, want %v / %v",
				phase, rep.NulledBytes, rep.Result.DeliveredBytes, nulled, delivered)
		}
	}
	nullRoutes := func() int { return d.x.NullRouteCount(host.Addr()) }
	rtbh := announce(64512, host, []bgp.Community{bgp.CommunityBlackhole})

	egress("before the signal", 0, honoringBytes+nonHonoringBytes)
	if err := victim.SendUpdate(rtbh); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the null route", func() bool { return nullRoutes() == 1 })
	if !d.x.NullRouted("AS64514", host.Addr()) || d.x.NullRouted("AS64513", host.Addr()) {
		t.Fatal("the null route is not the honoring member's alone")
	}
	egress("RTBH live", honoringBytes, nonHonoringBytes)

	if err := victim.SendUpdate(&bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: host}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "withdrawal to lift the null route", func() bool { return nullRoutes() == 0 })
	egress("after withdrawal", 0, honoringBytes+nonHonoringBytes)

	if err := victim.SendUpdate(rtbh); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the null route again", func() bool { return nullRoutes() == 1 })
	victim.Close()
	waitFor(t, "teardown to lift the null route", func() bool { return nullRoutes() == 0 })
	egress("after teardown", 0, honoringBytes+nonHonoringBytes)
}

// TestTickCadences pins the daemon's two cadences: per-event ticks
// apply signals without a wall-clock tick, and advance the clock only to
// the wall time elapsed, so a burst cannot fast-forward it; the
// wall-clock loop alone expires a TTL on an idle exchange.
func TestTickCadences(t *testing.T) {
	request := func(d *daemon, ttl float64) {
		t.Helper()
		if _, err := d.x.RequestMitigation(mitctl.Spec{
			Requester: "AS64512", Target: netip.MustParsePrefix("100.10.10.10/32"),
			Match: core.DropUDPSrcPort(123).Match(fabric.MatchAll()), Action: fabric.ActionDrop, TTL: ttl,
		}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("event burst", func(t *testing.T) {
		// A -tick this long never fires: only per-event ticks run.
		start := time.Now()
		d, addr, stop := startDaemon(t, "-irr 64512:100.10.0.0/16 -tick 1h")
		defer stop()
		victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
		defer victim.Close()
		request(d, 1)
		const burst = 100
		for i := 0; i < burst; i++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, 20, byte(i)}), 32)
			if err := victim.SendUpdate(announce(64512, p, []bgp.Community{bgp.CommunityBlackhole})); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "burst applied", func() bool { return d.x.RS.Table().Len() == burst })
		waitFor(t, "install", func() bool { return len(d.x.Mitigations.Active()) == 1 })
		if now, uptime := d.x.Clock(), time.Since(start).Seconds(); now <= 0 || now > uptime {
			t.Fatalf("clock after %d events: %v s, want in (0, %v], the wall time since start", burst, now, uptime)
		}
	})

	t.Run("idle exchange", func(t *testing.T) {
		d, addr, stop := startDaemon(t, "-irr 64512:100.10.0.0/16 -tick 5ms")
		defer stop()
		victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
		defer victim.Close()
		port, _ := d.x.Fabric.PortByName("AS64512")
		request(d, 0.05)
		// No BGP activity from here on: install and expiry both come
		// from the wall-clock loop.
		waitFor(t, "install", func() bool { return port.RuleCount() == 1 })
		waitFor(t, "expiry", func() bool { return port.RuleCount() == 0 && len(d.x.Mitigations.Active()) == 0 })
		if now := d.x.Clock(); now < 0.05 {
			t.Fatalf("expired at %v s, before its 0.05 s TTL", now)
		}
	})
}

// TestBurstKeepsWallClock sends one member's burst of 65 000 RTBH
// UPDATEs, each followed by its per-event control tick, and checks that
// the exchange clock follows the wall clock, not the message count: a
// 60 s TTL survives a burst that takes seconds, and the clock reads
// between the last UPDATE's send time and the time of the check, both
// measured from the daemon's start. A -tick this long never fires, so
// the per-event ticks alone move the clock.
func TestBurstKeepsWallClock(t *testing.T) {
	const burst = 65_000 // at 1 ms per UPDATE, past the TTL
	beforeStart := time.Now()
	d, addr, stop := startDaemon(t, "-irr 64512:100.10.0.0/15 -tick 1h")
	afterStart := time.Now()
	defer stop()
	victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
	defer victim.Close()
	m, err := d.x.RequestMitigation(mitctl.Spec{
		Requester: "AS64512", Target: netip.MustParsePrefix("100.10.10.10/32"),
		Match: core.DropUDPSrcPort(123).Match(fabric.MatchAll()), Action: fabric.ActionDrop, TTL: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 11, byte(i >> 8), byte(i)}), 32)
		if err := victim.SendUpdate(announce(64512, p, []bgp.Community{bgp.CommunityBlackhole})); err != nil {
			t.Fatal(err)
		}
	}
	lastSent := time.Since(afterStart).Seconds()
	waitWithin(t, time.Minute, "burst applied", func() bool { return d.x.RS.Table().Len() == burst })
	// The last UPDATE's tick ran after it was sent.
	waitFor(t, "the clock to reach the last UPDATE", func() bool { return d.x.Clock() >= lastSent })
	now, uptime := d.x.Clock(), time.Since(beforeStart).Seconds()
	if now > uptime {
		t.Fatalf("clock %.3f s after %d UPDATEs, ahead of the %.3f s wall time since start", now, burst, uptime)
	}
	if got, ok := d.x.Mitigations.Get(m.ID); !ok || got.State != mitctl.StateActive {
		t.Fatalf("60 s-TTL mitigation after %.3f s of wall time: %+v, want active", uptime, got)
	}
}

// TestDaemonPrunesFinalMitigations pins the daemon's store bound: a
// withdrawn mitigation stays readable for a wall-clock tick, then the
// wall-clock loop prunes it, so a long-running daemon does not keep one
// record per mitigation ever signalled.
func TestDaemonPrunesFinalMitigations(t *testing.T) {
	const signalled = 200
	signal := func(t *testing.T, d *daemon) []string {
		t.Helper()
		ids := make([]string, signalled)
		for i := range ids {
			m, err := d.x.RequestMitigation(mitctl.Spec{
				Requester: "AS64512", Target: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, 30, byte(i)}), 32),
				Match: core.DropUDPSrcPort(123).Match(fabric.MatchAll()), Action: fabric.ActionDrop,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.x.WithdrawMitigation(m.ID, "AS64512"); err != nil {
				t.Fatal(err)
			}
			ids[i] = m.ID
		}
		return ids
	}

	t.Run("one tick of grace", func(t *testing.T) {
		// A -tick this long never fires: the test plays the wall clock.
		d, addr, stop := startDaemon(t, "-irr 64512:100.10.0.0/16 -tick 1h")
		defer stop()
		victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
		defer victim.Close()
		ids := signal(t, d)
		d.prune()
		for _, id := range ids {
			if m, ok := d.x.Mitigations.Get(id); !ok || m.State != mitctl.StateWithdrawn {
				t.Fatalf("%s unreadable one tick after its withdrawal: %+v", id, m)
			}
		}
		d.prune()
		if n := len(d.x.Mitigations.Snapshot().Mitigations); n != 0 {
			t.Fatalf("%d final mitigations left after two ticks", n)
		}
	})

	t.Run("wall clock", func(t *testing.T) {
		d, addr, stop := startDaemon(t, "-irr 64512:100.10.0.0/16 -tick 1ms")
		defer stop()
		victim := dial(t, d, addr, 64512, "10.0.0.12", nil)
		defer victim.Close()
		signal(t, d)
		waitFor(t, "final mitigations pruned", func() bool {
			return len(d.x.Mitigations.Snapshot().Mitigations) < signalled/10
		})
	})
}

// TestDaemonStopsCleanly starts and stops the whole daemon with a live
// session and checks that nothing is left running.
func TestDaemonStopsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		d, addr, stop := startDaemon(t, "-open-irr -tick 1ms")
		s := dial(t, d, addr, 64512, "10.0.0.12", nil)
		stop()
		s.Close()
	}
	// Session goroutines wind down asynchronously after run; poll.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
