package ixp

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// lateMember fabricates a member outside MakePopulation's identity
// space: AS65000+i, one /24 out of 203.0.0.0/16.
func lateMember(i int) *member.Member {
	return &member.Member{
		Name:            fmt.Sprintf("AS%d", 65000+i),
		ASN:             uint32(65000 + i),
		MAC:             netpkt.MAC{0x02, 0x30, 0, 0, byte(i >> 8), byte(i)},
		BGPID:           netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}),
		PortCapacityBps: 1e9,
		Prefixes:        []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(i), 0}), 24)},
	}
}

// signalDrop announces m's /24 and then its .1 host route carrying a
// drop-NTP signal.
func signalDrop(x *IXP, m *member.Member) error {
	if err := x.Announce(m.Name, m.Prefixes[0], nil, nil); err != nil {
		return err
	}
	return x.Announce(m.Name, netip.PrefixFrom(victimAddr(m), 32), nil, []core.RuleSpec{core.DropUDPSrcPort(123)})
}

// TestJoinAfterBuild joins member number len(cfg.Members)+1 to a built
// exchange: its signal validates against its IRR prefixes (ASNOf),
// resolves its MAC, and installs on its own hardware port — the index
// one past the router Build sized, where a fixed-size port table
// answered hw.ErrUnknownPort.
func TestJoinAfterBuild(t *testing.T) {
	x, members := buildTestIXP(t, 3, 0, true)
	late := lateMember(0)
	if err := x.Join(late); err != nil {
		t.Fatal(err)
	}
	if m, err := x.Member(late.Name); err != nil || m != late {
		t.Fatalf("Member: %v, %v", m, err)
	}
	if m, ok := memberByMAC(x, late.MAC); !ok || m != late || !x.MemberFilter()().Has(late.MAC) {
		t.Fatalf("memberByMAC: %v, %v", m, ok)
	}
	if got := x.Router.Snapshot().Limits.Ports; got != len(members)+1 {
		t.Fatalf("router ports: %d", got)
	}

	if err := signalDrop(x, late); err != nil {
		t.Fatal(err)
	}
	ntp := netpkt.FlowKey{SrcMAC: members[1].MAC, Src: victimAddr(members[1]), Dst: victimAddr(late),
		Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	x.ControlTick(0, 1)
	reports, err := x.EgressTick(nil, fabric.TickOffers{late.Name: {{Flow: &ntp, Bytes: 1e6, Packets: 1e3}}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reports[late.Name].Result.RuleDroppedBytes; got != 1e6 {
		t.Fatalf("rule dropped %v of 1e6 bytes (controller errors: %v)", got, x.Mitigations.GlassErrors())
	}
	if alloc := x.Router.Snapshot().Ports[len(members)]; alloc.QoSPolicies != 1 {
		t.Fatalf("hardware port %d: %+v", len(members), alloc)
	}

	// A taken name or MAC is rejected and leaves the exchange as it was.
	sameName := lateMember(1)
	sameName.Name = late.Name
	sameMAC := lateMember(2)
	sameMAC.MAC = members[0].MAC
	for _, m := range []*member.Member{sameName, sameMAC} {
		if err := x.Join(m); err == nil {
			t.Fatalf("Join(%s, %s) accepted a duplicate", m.Name, m.MAC)
		}
	}
	if _, err := x.Fabric.PortByName(sameMAC.Name); err == nil {
		t.Fatal("rejected member has a fabric port")
	}
	if hwPorts := len(x.Router.Snapshot().Ports); hwPorts != 4 {
		t.Fatalf("after rejected joins: %d hardware ports", hwPorts)
	}
	if _, err := x.Member(sameMAC.Name); err == nil {
		t.Fatal("rejected member is registered")
	}
}

// TestJoinOnEmptyExchange is the daemon's shape: Build with no static
// members, every member joined at runtime, the route-server peer
// already registered by the wire front when Join runs.
func TestJoinOnEmptyExchange(t *testing.T) {
	x, err := Build(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH, EnableStellar: true})
	if err != nil {
		t.Fatal(err)
	}
	m := lateMember(0)
	if err := x.RS.AddPeer(routeserver.PeerConfig{Name: m.Name, ASN: m.ASN, BGPID: m.BGPID}); err != nil {
		t.Fatal(err)
	}
	if err := x.Join(m); err != nil {
		t.Fatalf("Join with the peer already at the route server: %v", err)
	}
	if err := signalDrop(x, m); err != nil {
		t.Fatal(err)
	}
	x.ControlTick(0, 1)
	if installedRules(x) != 1 || x.Mitigations.ErrorCount() != 0 {
		t.Fatalf("rules %d, controller errors %v", installedRules(x), x.Mitigations.GlassErrors())
	}
	// A honoring member that joins later still reacts to RTBH exports.
	honoring := lateMember(1)
	honoring.AcceptsMoreSpecifics, honoring.ActsOnBlackhole = true, true
	if err := x.Join(honoring); err != nil {
		t.Fatal(err)
	}
	host := netip.PrefixFrom(victimAddr(m), 32)
	if err := x.Announce(m.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil); err != nil {
		t.Fatal(err)
	}
	if !x.NullRouted(honoring.Name, host.Addr()) {
		t.Fatal("joined member did not null-route the blackholed host")
	}
}

// TestJoinConcurrent joins members while the control tick, the egress
// tick (with a null route in place, so the per-offer filter resolves
// source MACs) and the looking glass run; meaningful under -race.
func TestJoinConcurrent(t *testing.T) {
	x, members := buildTestIXP(t, 8, 1, true)
	victim := members[0]
	host := netip.PrefixFrom(victimAddr(victim), 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Announce(victim.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil); err != nil {
		t.Fatal(err)
	}
	offers := fabric.TickOffers{victim.Name: nil}
	for _, m := range members[1:] {
		offers[victim.Name] = append(offers[victim.Name], fabric.Offer{Flow: &netpkt.FlowKey{
			SrcMAC: m.MAC, Src: victimAddr(m), Dst: host.Addr(), Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
		}, Bytes: 1e4, Packets: 10})
	}

	const joins = 32
	stop := make(chan struct{})
	var background sync.WaitGroup
	loop := func(f func()) {
		background.Add(1)
		go func() {
			defer background.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	loop(func() { x.ControlTick(0, 0.001) })
	loop(func() {
		if _, err := x.EgressTick(nil, offers, 1, nil); err != nil {
			t.Error(err)
		}
	})
	loop(func() { x.RS.Glass(host); x.Mitigations.GlassMitigations("", x.Clock()) })

	var joiners sync.WaitGroup
	for w := 0; w < 4; w++ {
		joiners.Add(1)
		go func(w int) {
			defer joiners.Done()
			for i := w; i < joins; i += 4 {
				m := lateMember(i)
				if err := x.Join(m); err != nil {
					t.Error(err)
					return
				}
				if err := signalDrop(x, m); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	joiners.Wait()
	close(stop)
	background.Wait()

	x.ControlTick(0, 1)
	if n := x.Mitigations.ErrorCount(); n != 0 {
		t.Fatalf("controller errors: %v", x.Mitigations.GlassErrors())
	}
	for i := 0; i < joins; i++ {
		m := lateMember(i)
		if _, err := x.Fabric.PortByName(m.Name); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if _, ok := memberByMAC(x, m.MAC); !ok {
			t.Fatalf("%s not in the MAC registry", m.Name)
		}
	}
	// Every joined member got a hardware port of its own, holding its
	// one rule.
	ports := x.Router.Snapshot().Ports
	for idx := len(members); idx < len(members)+joins; idx++ {
		if ports[idx].QoSPolicies != 1 {
			t.Fatalf("hardware port %d: %+v", idx, ports[idx])
		}
	}
}

// heldSet is a member set whose answers wait until release is closed.
type heldSet struct {
	flowmon.Members
	release <-chan struct{}
}

func (s *heldSet) Has(mac netpkt.MAC) bool {
	<-s.release
	return s.Members.Has(mac)
}

// TestJoinMidRunCountsFromItsTick: a member joined by an event at tick
// k, sending from tick 0, counts toward ActivePeers from tick k on and
// not below, with the same series at every Depth. At Depth 4 the fold
// of tick k-1 is held until the spine has applied tick k's Join, so a
// count that read the live registry instead of the member set the spine
// took for the tick would count the joiner one tick early.
func TestJoinMidRunCountsFromItsTick(t *testing.T) {
	const ticks, joinTick = 8, 4
	run := func(depth int) (samples []engine.Sample, senders int) {
		x, members := buildTestIXP(t, 4, 0, false)
		victim, late := members[0], lateMember(0)
		peers := PeersOf(append(append([]*member.Member(nil), members[1:]...), late))
		attack := traffic.NewAttack(traffic.VectorNTP, victimAddr(victim), peers, 4e8, 0, ticks, stats.NewRand(9))
		attack.RampTicks = 0
		joined := make(chan struct{})
		join := engine.Event{Tick: joinTick, Name: "join", Do: func() error {
			defer close(joined)
			return x.Join(late)
		}}
		cfg := engineConfig(x, ticks, []engine.VictimSpec{{Port: victim.Name}}, [][]engine.Source{{attack}}, join)
		cfg.Depth = depth
		if depth > 1 {
			registered, tick := cfg.MemberFilter, 0
			cfg.MemberFilter = func() flowmon.Members {
				m := registered()
				if tick++; tick == joinTick { // tick joinTick-1's set
					return &heldSet{m, joined}
				}
				return m
			}
		}
		series, err := engine.New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return series[0].Samples, len(members) - 1
	}
	serial, senders := run(1)
	for _, s := range serial {
		want := senders
		if s.Tick >= joinTick {
			want++
		}
		if s.ActivePeers != want {
			t.Fatalf("depth 1 tick %d: %d active peers, want %d", s.Tick, s.ActivePeers, want)
		}
	}
	if got, want := fmt.Sprint(run(4)), fmt.Sprint(serial, senders); got != want {
		t.Fatalf("depth 4 series:\n%s\nwant (depth 1):\n%s", got, want)
	}
}
