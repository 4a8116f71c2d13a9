package ixp

import (
	"net/netip"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/fabric"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// holdOpen is a pipe stage that only keeps the lines open until Stop,
// so the test can Send RX messages itself.
type holdOpen chan struct{}

func (h holdOpen) Name() string               { return "hold-open" }
func (h holdOpen) Attach(*bgppipe.Pipe) error { return nil }
func (h holdOpen) Run() error                 { <-h; return nil }
func (h holdOpen) Stop() error                { close(h); return nil }

// TestWireDoorMatchesInProcessDoor builds twin exchanges from one
// population and runs one seeded sequence of RTBH /32 announcements and
// withdrawals, plain /24 churn and session losses on both: exchange A
// receives it as RX messages through a pipe into bgppipe.RSFeed — the
// wire door cmd/ixpd runs — and exchange B through HandleWireUpdate and
// PeerDown. After every step both agree on every member's null route to
// every victim /32, and every field of every port's egress report is
// bit-identical.
func TestWireDoorMatchesInProcessDoor(t *testing.T) {
	const nVictims, steps = 3, 300
	members := member.MakePopulation(member.PopulationConfig{
		N: 16, HonoringFraction: 0.5, PortCapacityBps: 1e10, Seed: 11,
	})
	members[0].PortCapacityBps = 1e9 // a congested victim port
	build := func() *IXP {
		x, err := Build(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH, Members: members})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	wire, direct := build(), build()

	applied := make(chan struct{}, 1)
	pipe := bgppipe.New(bgppipe.Options{})
	for _, st := range []bgppipe.Stage{make(holdOpen), &bgppipe.RSFeed{
		RS:         wire.RS,
		AfterApply: func() { applied <- struct{}{} },
	}} {
		if err := pipe.Attach(st); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Start()
	defer func() {
		pipe.Stop()
		if err := pipe.Wait(); err != nil {
			t.Error(err)
		}
	}()
	// send puts one message on the wire exchange's RX line and waits
	// until RSFeed has applied it.
	send := func(m *bgppipe.Msg) {
		t.Helper()
		if err := pipe.Send(bgppipe.DirRX, m); err != nil {
			t.Fatal(err)
		}
		select {
		case <-applied:
		case <-time.After(5 * time.Second):
			t.Fatalf("RSFeed did not apply %v", m)
		}
	}
	update := func(m *member.Member, u func() *bgp.Update) {
		t.Helper()
		send(&bgppipe.Msg{Peer: m.Name, BGP: u()})
		if err := direct.HandleWireUpdate(m.Name, u()); err != nil {
			t.Fatal(err)
		}
	}
	announce := func(m *member.Member, p netip.Prefix, comms ...bgp.Community) func() *bgp.Update {
		return func() *bgp.Update {
			return &bgp.Update{
				Attrs: bgp.PathAttrs{
					Origin:      bgp.OriginIGP,
					ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.ASN}}},
					NextHop:     m.BGPID,
					Communities: comms,
				},
				NLRI: []bgp.PathPrefix{{Prefix: p}},
			}
		}
	}
	withdraw := func(p netip.Prefix) func() *bgp.Update {
		return func() *bgp.Update { return &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: p}}} }
	}

	host := func(v int) netip.Prefix { return netip.PrefixFrom(victimAddr(members[v]), 32) }
	rng := stats.NewRand(31)
	liveSteps := 0
	for step := 0; step < steps; step++ {
		m := members[rng.Intn(len(members))]
		v := rng.Intn(nVictims)
		switch op := rng.Intn(10); {
		case op < 3: // the victim's covering /24, then its RTBH /32
			update(members[v], announce(members[v], members[v].Prefixes[0]))
			update(members[v], announce(members[v], host(v), bgp.CommunityBlackhole))
		case op < 5:
			update(members[v], withdraw(host(v)))
		case op < 8: // plain /24 churn from any member
			if rng.Intn(2) == 0 {
				update(m, announce(m, m.Prefixes[0]))
			} else {
				update(m, withdraw(m.Prefixes[0]))
			}
		default: // a session loss, the victim's or any member's
			if rng.Intn(2) == 0 {
				m = members[v]
			}
			send(&bgppipe.Msg{Peer: m.Name, Event: bgppipe.EventPeerDown})
			if err := direct.PeerDown(m.Name); err != nil {
				t.Fatal(err)
			}
		}

		live := false
		for w := 0; w < nVictims; w++ {
			dst := host(w).Addr()
			for _, m := range members {
				if got, want := wire.NullRouted(m.Name, dst), direct.NullRouted(m.Name, dst); got != want {
					t.Fatalf("step %d: NullRouted(%s, %s): wire door %v, in-process door %v", step, m.Name, dst, got, want)
				}
			}
			n := direct.NullRouteCount(dst)
			if got := wire.NullRouteCount(dst); got != n {
				t.Fatalf("step %d: NullRouteCount(%s): wire door %d, in-process door %d", step, dst, got, n)
			}
			live = live || n > 0
		}
		if live {
			liveSteps++
		}

		offers := make(fabric.TickOffers, nVictims)
		for w := 0; w < nVictims; w++ {
			var os []fabric.Offer
			for _, src := range members {
				for _, dst := range []netip.Addr{host(w).Addr(), host(w).Addr().Next()} {
					flow := netpkt.FlowKey{SrcMAC: src.MAC, Dst: dst, Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
					b := 1e7 * (1 + rng.Float64())
					os = append(os, fabric.Offer{Flow: &flow, Bytes: b, Packets: b / 500})
				}
			}
			offers[members[w].Name] = os
		}
		got, err := wire.EgressTick(nil, offers, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.EgressTick(nil, offers, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: wire door %d port reports, in-process door %d", step, len(got), len(want))
		}
		for name, w := range want {
			if g := got[name]; portReportBits(g) != portReportBits(w) {
				t.Fatalf("step %d port %s:\n wire door       %+v\n in-process door %+v", step, name, g, w)
			}
		}
	}
	if liveSteps == 0 || liveSteps == steps {
		t.Fatalf("%d of %d steps had a null route live: both regimes must run", liveSteps, steps)
	}
}
