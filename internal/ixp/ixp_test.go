package ixp

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

const ixpASN = 6695

var blackholeNH = netip.MustParseAddr("80.81.193.66")

// buildTestIXP creates an IXP with n members, honoring fraction f.
func buildTestIXP(t *testing.T, n int, honorFrac float64, stellarOn bool) (*IXP, []*member.Member) {
	t.Helper()
	members := member.MakePopulation(member.PopulationConfig{
		N: n, HonoringFraction: honorFrac, PortCapacityBps: 1e10, Seed: 11,
	})
	// The victim gets a 1 Gbps port (the paper's monitored member port).
	members[0].PortCapacityBps = 1e9
	x, err := Build(Config{
		ASN:              ixpASN,
		BlackholeNextHop: blackholeNH,
		Members:          members,
		EnableStellar:    stellarOn,
		QueueRate:        1000, // effectively unthrottled for unit tests
		QueueBurst:       1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, members
}

func victimAddr(m *member.Member) netip.Addr {
	return m.Prefixes[0].Addr().Next() // .1 in the member's /24
}

// engineConfig wires a pipelined run on x the way every engine-on-IXP
// caller does: the IXP is both planes and its member filter restricts
// the active-peer count. sources[i] feeds specs[i].
func engineConfig(x *IXP, ticks int, specs []engine.VictimSpec, sources [][]engine.Source, events ...engine.Event) engine.Config {
	return engine.Config{
		Driver:       engine.NewSourcesDriver(specs, sources),
		Control:      x,
		DataPlane:    x,
		MemberFilter: x.MemberFilter(),
		Events:       events,
		Ticks:        ticks,
	}
}

func TestBuildWiring(t *testing.T) {
	x, members := buildTestIXP(t, 20, 0.3, true)
	if len(x.RS.Peers()) != 20 {
		t.Fatalf("peers: %d", len(x.RS.Peers()))
	}
	for _, m := range members {
		if _, err := x.Fabric.PortByName(m.Name); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
	if x.Mitigations == nil || x.Community == nil {
		t.Fatal("mitigation control plane not wired")
	}
	if _, err := x.Member(members[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Member("ghost"); err == nil {
		t.Fatal("ghost member found")
	}
	if _, ok := memberByMAC(x, members[3].MAC); !ok {
		t.Fatal("member's MAC not registered")
	}
}

// memberByMAC resolves a fabric source MAC to its member.
func memberByMAC(x *IXP, mac netpkt.MAC) (*member.Member, bool) {
	m, ok := x.reg.Load().byMAC[mac.Key()]
	return m, ok
}

func TestBuildDuplicateMember(t *testing.T) {
	members := member.MakePopulation(member.PopulationConfig{N: 2, Seed: 1})
	members[1] = members[0]
	if _, err := Build(Config{ASN: 1, Members: members}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// TestRTBHHonoringOnlyHonoringMembersNullRoute runs RTBH in both
// families: the victim blackholes a host inside its announced covering
// prefix, the route server exports it with the blackholing next hop in
// the family's own form (IPv4 NEXT_HOP; for IPv6 a 16-byte MP_REACH
// next hop, the blackholing IP's IPv4-mapped form), exactly the
// honoring members null-route it, and the withdrawal lifts it.
func TestRTBHHonoringOnlyHonoringMembersNullRoute(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cover  netip.Prefix // zero: the victim's first IPv4 /24
		target netip.Addr   // zero: .1 in that /24
	}{
		{name: "IPv4 /32"},
		{name: "IPv6 /128", cover: netip.MustParsePrefix("2001:db8:100::/48"), target: netip.MustParseAddr("2001:db8:100::10")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, members := buildTestIXP(t, 50, 0.3, false)
			victim := members[0]
			cover, target := victim.Prefixes[0], victimAddr(victim)
			if tc.cover.IsValid() {
				cover, target = tc.cover, tc.target
				x.Policy.IRR.Register(victim.ASN, cover)
			}
			host := netip.PrefixFrom(target, target.BitLen())
			var exported []*bgp.Update
			x.RS.Subscribe(func(ev routeserver.ControllerEvent) {
				for _, name := range x.RS.Peers() {
					exported = ev.Exports.To(name, exported)
				}
			})

			// Victim announces its covering prefix, then blackholes the host.
			if err := x.Announce(victim.Name, cover, nil, nil); err != nil {
				t.Fatal(err)
			}
			exported = nil
			if err := x.Announce(victim.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil); err != nil {
				t.Fatal(err)
			}
			if len(exported) == 0 {
				t.Fatal("blackhole not exported")
			}
			for _, u := range exported {
				wire, err := bgp.Marshal(u, nil)
				if err != nil {
					t.Fatal(err)
				}
				msg, _, err := bgp.Unmarshal(wire, nil)
				if err != nil {
					t.Fatal(err)
				}
				attrs := msg.(*bgp.Update).Attrs
				if nh := attrs.NextHop; target.Is4() && nh != blackholeNH {
					t.Fatalf("exported NEXT_HOP %v, want %v", nh, blackholeNH)
				}
				// A 4-byte MP_REACH next hop decodes as IPv4, a 16-byte one as IPv6.
				if mp := attrs.MPReach; target.Is6() && (mp == nil || !mp.NextHop.Is6() || mp.NextHop.Unmap() != blackholeNH) {
					t.Fatalf("exported MP_REACH %+v, want the 16-byte next hop %v", mp, netip.AddrFrom16(blackholeNH.As16()))
				}
			}

			honoring := 0
			for _, m := range members[1:] {
				if got := x.NullRouted(m.Name, target); got != m.HonorsRTBH() {
					t.Fatalf("member %s null-routes %v: %v, honors RTBH: %v", m.Name, host, got, m.HonorsRTBH())
				}
				if m.HonorsRTBH() {
					honoring++
				}
			}
			if honoring == 0 {
				t.Fatal("test needs at least one honoring member")
			}
			if got := x.NullRouteCount(target); got != honoring {
				t.Fatalf("NullRouteCount: %d, want %d", got, honoring)
			}

			// Withdrawal clears the null routes.
			if err := x.Withdraw(victim.Name, host); err != nil {
				t.Fatal(err)
			}
			if got := x.NullRouteCount(target); got != 0 {
				t.Fatalf("null routes after withdraw: %d", got)
			}
		})
	}
}

func TestTickNullRoutingDropsHonoringTraffic(t *testing.T) {
	x, members := buildTestIXP(t, 10, 1.0, false) // everyone honors
	victim := members[0]
	target := victimAddr(victim)
	host := netip.PrefixFrom(target, 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Announce(victim.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil); err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRand(1)
	attack := traffic.NewAttack(traffic.VectorNTP, target, PeersOf(members[1:]), 1e9, 0, 100, rng)
	attack.RampTicks = 0
	offers := attack.AppendOffers(nil, 10, 1)
	x.ControlTick(0, 1)
	reports, err := x.EgressTick(nil, fabric.TickOffers{victim.Name: offers}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[victim.Name]
	if rep.NulledBytes <= 0 {
		t.Fatal("no traffic nulled")
	}
	if rep.Result.DeliveredBytes != 0 {
		t.Fatalf("delivered despite full honoring: %v", rep.Result.DeliveredBytes)
	}
}

func TestStellarEndToEndMitigation(t *testing.T) {
	// The complete §5.3 signal path: announce /32 with an AdvBH drop
	// signal -> controller -> QoS rule -> attack dies, web lives.
	x, members := buildTestIXP(t, 10, 0.0, true) // nobody honors RTBH
	victim := members[0]
	target := victimAddr(victim)
	host := netip.PrefixFrom(target, 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRand(2)
	peers := PeersOf(members[1:])
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 2e9, 0, 1000, rng)
	attack.RampTicks = 0
	web := traffic.NewWebService(target, peers[:3], 4e8, rng)

	mkOffers := func(tick int) []fabric.Offer {
		return web.AppendOffers(attack.AppendOffers(nil, tick, 1), tick, 1)
	}

	// Before mitigation: congestion, web suffers.
	x.ControlTick(0, 1)
	reports, err := x.EgressTick(nil, fabric.TickOffers{victim.Name: mkOffers(0)}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := reports[victim.Name]
	if pre.Result.CongestionDroppedBytes <= 0 {
		t.Fatal("expected congestion before mitigation")
	}

	// Signal Advanced Blackholing: drop UDP src 123 toward the /32.
	if err := x.Announce(victim.Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
		t.Fatal(err)
	}
	// Next tick applies the queued change, then filters.
	x.ControlTick(0, 1)
	reports, err = x.EgressTick(nil, fabric.TickOffers{victim.Name: mkOffers(1)}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	post := reports[victim.Name]
	if post.Result.RuleDroppedBytes <= 0 {
		t.Fatalf("rule did not drop: %+v (controller errs %v)", post.Result, x.Mitigations.GlassErrors())
	}
	// Web traffic delivered in full: 4e8 bps = 5e7 bytes.
	if post.Result.DeliveredBytes < 4.9e7 || post.Result.DeliveredBytes > 5.1e7 {
		t.Fatalf("delivered: %v, want ~5e7 (web only)", post.Result.DeliveredBytes)
	}
	if post.Result.CongestionDroppedBytes != 0 {
		t.Fatal("congestion after mitigation")
	}
}

func TestScenarioRunsEvents(t *testing.T) {
	x, members := buildTestIXP(t, 10, 0.0, true)
	victim := members[0]
	target := victimAddr(victim)
	host := netip.PrefixFrom(target, 32)
	if err := x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(3)
	peers := PeersOf(members[1:])
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 1e9, 5, 100, rng)

	series, err := engine.New(engineConfig(x, 30,
		[]engine.VictimSpec{{Port: victim.Name}}, [][]engine.Source{{attack}},
		engine.Event{Tick: 15, Name: "drop ntp", Do: func() error {
			return x.Announce(victim.Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(123)})
		}})).Run()
	if err != nil {
		t.Fatal(err)
	}
	samples := series[0].Samples
	if len(samples) != 30 {
		t.Fatalf("samples: %d", len(samples))
	}
	// Quiet before attack, loud during, near-zero after mitigation.
	if samples[2].DeliveredBps != 0 {
		t.Fatalf("tick 2 delivered: %v", samples[2].DeliveredBps)
	}
	delivered := func(s engine.Sample) float64 { return s.DeliveredBps }
	active := func(s engine.Sample) float64 { return float64(s.ActivePeers) }
	during := meanOver(samples, 10, 15, delivered)
	if during < 5e8 {
		t.Fatalf("during attack: %v", during)
	}
	after := meanOver(samples, 18, 30, delivered)
	if after > during/10 {
		t.Fatalf("after mitigation: %v (during %v)", after, during)
	}
	if meanOver(samples, 10, 15, active) <= meanOver(samples, 20, 30, active) {
		t.Fatal("peer count did not fall after drop")
	}
}

// meanOver averages f over the samples of ticks [from, to).
func meanOver(samples []engine.Sample, from, to int, f func(engine.Sample) float64) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Tick >= from && s.Tick < to {
			sum += f(s)
			n++
		}
	}
	return sum / float64(n)
}

// TestScenarioUnknownVictim: a victim port the fabric does not have
// fails the run at its first egress instead of yielding an empty series.
func TestScenarioUnknownVictim(t *testing.T) {
	x, _ := buildTestIXP(t, 3, 0, false)
	series, err := engine.New(engineConfig(x, 3, []engine.VictimSpec{{Port: "ghost"}}, nil)).Run()
	if !errors.Is(err, fabric.ErrNoSuchPort) {
		t.Fatalf("unknown victim port: err %v, want fabric.ErrNoSuchPort", err)
	}
	if len(series[0].Samples) != 0 {
		t.Fatalf("unknown victim port produced %d samples", len(series[0].Samples))
	}
}

func TestScenarioEventError(t *testing.T) {
	x, members := buildTestIXP(t, 3, 0, false)
	_, err := engine.New(engineConfig(x, 5, []engine.VictimSpec{{Port: members[0].Name}}, nil,
		engine.Event{Tick: 1, Name: "bad", Do: func() error {
			return x.Announce("ghost", members[0].Prefixes[0], nil, nil)
		}})).Run()
	if err == nil {
		t.Fatal("event error swallowed")
	}
}

func TestAnnounceRejectedPropagates(t *testing.T) {
	x, members := buildTestIXP(t, 3, 0, false)
	// Announce a prefix the member does not own.
	err := x.Announce(members[0].Name, netip.MustParsePrefix("8.8.8.0/24"), nil, nil)
	if err == nil {
		t.Fatal("hijack accepted")
	}
}

func TestIPv6BlackholingEndToEnd(t *testing.T) {
	// The IPv6 path: a member announces a /48, then blackholes a /128
	// with an Advanced Blackholing signal; the controller installs a v6
	// rule and the fabric drops matching traffic.
	x, members := buildTestIXP(t, 6, 0.0, true)
	victim := members[0]
	v6Prefix := netip.MustParsePrefix("2001:db8:100::/48")
	victim.Prefixes = append(victim.Prefixes, v6Prefix)
	x.Policy.IRR.Register(victim.ASN, v6Prefix)
	target6 := netip.MustParseAddr("2001:db8:100::10")
	host6 := netip.PrefixFrom(target6, 128)

	if err := x.Announce(victim.Name, v6Prefix, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Announce(victim.Name, host6, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
		t.Fatal(err)
	}
	// A plain /128 without a blackholing signal must be rejected.
	other6 := netip.PrefixFrom(netip.MustParseAddr("2001:db8:100::99"), 128)
	if err := x.Announce(victim.Name, other6, nil, nil); err == nil {
		t.Fatal("plain /128 accepted")
	}

	// Attack traffic over IPv6 toward the /128.
	attacker := members[1]
	offer := fabric.Offer{
		Flow: &netpkt.FlowKey{
			SrcMAC: attacker.MAC,
			Src:    netip.MustParseAddr("2001:db8:bad::1"),
			Dst:    target6,
			Proto:  netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
		},
		Bytes: 1e6, Packets: 1000,
	}
	web := fabric.Offer{
		Flow: &netpkt.FlowKey{
			SrcMAC: attacker.MAC,
			Src:    netip.MustParseAddr("2001:db8:bad::1"),
			Dst:    target6,
			Proto:  netpkt.ProtoTCP, SrcPort: 50000, DstPort: 443,
		},
		Bytes: 5e5, Packets: 500,
	}
	x.ControlTick(0, 1)
	reports, err := x.EgressTick(nil, fabric.TickOffers{victim.Name: {offer, web}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[victim.Name]
	if rep.Result.RuleDroppedBytes != 1e6 {
		t.Fatalf("v6 rule drop: %v (controller errs: %v)", rep.Result.RuleDroppedBytes, x.Mitigations.GlassErrors())
	}
	if rep.Result.DeliveredBytes != 5e5 {
		t.Fatalf("v6 benign delivered: %v", rep.Result.DeliveredBytes)
	}

	// Withdraw removes the v6 rule.
	if err := x.Withdraw(victim.Name, host6); err != nil {
		t.Fatal(err)
	}
	x.ControlTick(0, 1)
	if installedRules(x) != 0 {
		t.Fatalf("v6 rule not removed: %d", installedRules(x))
	}
}

func TestMemberSessionLossCleansRules(t *testing.T) {
	// Failure injection: the victim's BGP session dies; the route server
	// withdraws everything (RFC 4271 implicit withdraw) and Stellar must
	// tear the member's blackholing rules down.
	x, members := buildTestIXP(t, 6, 0.0, true)
	victim := members[0]
	target := victimAddr(victim)
	host := netip.PrefixFrom(target, 32)
	if err := x.Announce(victim.Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
		t.Fatal(err)
	}
	x.ControlTick(0, 1)
	if installedRules(x) != 1 {
		t.Fatalf("precondition: %d rules", installedRules(x))
	}
	// Session loss.
	if _, err := x.RS.HandleWithdrawAll(victim.Name); err != nil {
		t.Fatal(err)
	}
	x.ControlTick(0, 1)
	if installedRules(x) != 0 {
		t.Fatalf("rules after session loss: %d", installedRules(x))
	}
	if x.Community.SignalingPaths() != 0 {
		t.Fatal("signaling paths not cleared")
	}
	if got := len(x.Mitigations.Active()); got != 0 {
		t.Fatalf("live mitigations after session loss: %d", got)
	}
}

// TestPlainRoutesLeaveSignalingChannelEmpty pins what the channel's
// SignalingPaths counts: a full table of plain announcements through
// the wire entry point is the route server's business only — the
// mitigation channel tracks none of it.
func TestPlainRoutesLeaveSignalingChannelEmpty(t *testing.T) {
	const routes = 20000
	x, members := buildTestIXP(t, 4, 0.0, true)
	m := members[1]
	x.Policy.IRR.Register(m.ASN, netip.MustParsePrefix("20.0.0.0/8"))
	attrs := bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.ASN}}},
		NextHop: m.BGPID,
	}
	for i := 0; i < routes; i++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)
		u := &bgp.Update{Attrs: attrs, NLRI: []bgp.PathPrefix{{Prefix: prefix}}}
		if err := x.HandleWireUpdate(m.Name, u); err != nil {
			t.Fatal(err)
		}
	}
	if got := x.RS.Table().Len(); got != routes {
		t.Fatalf("route server holds %d paths, want %d (rejections: %d)", got, routes, len(x.RS.Rejections()))
	}
	if got := x.Community.SignalingPaths(); got != 0 {
		t.Fatalf("channel tracks %d of %d plain paths", got, routes)
	}
}

// portState renders the rules a port holds under ids content-wise (IDs
// excluded), for cross-path equivalence comparisons.
func portState(t *testing.T, x *IXP, member string, ids []string) string {
	t.Helper()
	port, err := x.Fabric.PortByName(member)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, id := range ids {
		if r, err := port.Rule(id); err == nil {
			rows = append(rows, fmt.Sprintf("%s -> %v@%g", r.Match, r.Action, r.ShapeRateBps))
		}
	}
	return strings.Join(rows, "\n")
}

// installedRules counts the rules installed across the exchange: each
// holds one QoS policy slot on the edge router.
func installedRules(x *IXP) int {
	n := 0
	for _, p := range x.Router.Snapshot().Ports {
		n += p.QoSPolicies
	}
	return n
}

// TestAnnounceFacadeEquivalence pins the deprecated Announce(specs)
// façade against the declarative API: signaling a rule spec through a
// BGP announcement and requesting the equivalent mitctl.Spec directly
// must produce identical installed state, identical mitigation IDs and
// identical tick behavior.
func TestAnnounceFacadeEquivalence(t *testing.T) {
	buildOne := func() (*IXP, []*member.Member) { return buildTestIXP(t, 8, 0.0, true) }
	runTicks := func(x *IXP, victim *member.Member) fabric.TickResult {
		rng := stats.NewRand(7)
		attack := traffic.NewAttack(traffic.VectorNTP, victimAddr(victim), PeersOf([]*member.Member{victim}), 1e9, 0, 100, rng)
		attack.RampTicks = 0
		offers := attack.AppendOffers(nil, 1, 1)
		x.ControlTick(0, 1)
		reports, err := x.EgressTick(nil, fabric.TickOffers{victim.Name: offers}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return reports[victim.Name].Result
	}

	// Path A: the legacy BGP façade.
	xa, membersA := buildOne()
	victimA := membersA[0]
	hostA := netip.PrefixFrom(victimAddr(victimA), 32)
	if err := xa.Announce(victimA.Name, hostA, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
		t.Fatal(err)
	}
	resA := runTicks(xa, victimA)

	// Path B: the declarative API with the compiled spec.
	xb, membersB := buildOne()
	victimB := membersB[0]
	hostB := netip.PrefixFrom(victimAddr(victimB), 32)
	spec, err := mitctl.SpecFromSignal(victimB.Name, hostB, core.DropUDPSrcPort(123), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xb.RequestMitigation(spec); err != nil {
		t.Fatal(err)
	}
	resB := runTicks(xb, victimB)

	idsA, idsB := xa.Mitigations.Active(), xb.Mitigations.Active()
	if len(idsA) != 1 || len(idsB) != 1 || idsA[0].ID != idsB[0].ID {
		t.Fatalf("mitigation IDs diverge: %+v vs %+v", idsA, idsB)
	}
	sa, sb := portState(t, xa, victimA.Name, idsA[0].RuleIDs), portState(t, xb, victimB.Name, idsB[0].RuleIDs)
	if sa != sb || sa == "" || installedRules(xa) != 1 || installedRules(xb) != 1 {
		t.Fatalf("installed state diverges:\nfacade:\n%s\napi:\n%s", sa, sb)
	}
	if resA.RuleDroppedBytes != resB.RuleDroppedBytes || resA.DeliveredBytes != resB.DeliveredBytes {
		t.Fatalf("tick results diverge: %+v vs %+v", resA, resB)
	}
	if resA.RuleDroppedBytes == 0 {
		t.Fatal("mitigation had no effect")
	}

	// Cross-path withdrawal: the API can withdraw what BGP requested.
	if err := xa.WithdrawMitigation(idsA[0].ID, victimA.Name); err != nil {
		t.Fatal(err)
	}
	xa.ControlTick(0, 1)
	if got := portState(t, xa, victimA.Name, idsA[0].RuleIDs); got != "" || installedRules(xa) != 0 {
		t.Fatalf("rules after cross-path withdraw:\n%s", got)
	}
}

// TestMitigationTTLFromTickLoop verifies the TTL clock is driven by the
// simulation tick loop end to end: a TTL'd API request installs, lives
// for its lifetime, and is removed by a later tick with no explicit
// withdrawal.
func TestMitigationTTLFromTickLoop(t *testing.T) {
	x, members := buildTestIXP(t, 4, 0.0, true)
	victim := members[0]
	host := netip.PrefixFrom(victimAddr(victim), 32)
	spec, err := mitctl.SpecFromSignal(victim.Name, host, core.DropUDPSrcPort(123), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.TTL = 3
	m, err := x.RequestMitigation(spec)
	if err != nil {
		t.Fatal(err)
	}
	tick := func() { x.ControlTick(0, 1) }
	tick() // t=1: installed
	if installedRules(x) != 1 {
		t.Fatalf("rules at t=1: %d", installedRules(x))
	}
	// The looking glass lists it with its remaining TTL.
	glass := x.Mitigations.GlassMitigations("", x.Clock())
	if !strings.Contains(glass, m.ID) || !strings.Contains(glass, "owner "+victim.Name) {
		t.Fatalf("looking glass:\n%s", glass)
	}
	tick() // t=2
	if got, _ := x.Mitigations.Get(m.ID); got.State != mitctl.StateActive {
		t.Fatalf("state at t=2: %v", got.State)
	}
	tick() // t=3: TTL deadline — expiry and removal ride this tick
	if got, _ := x.Mitigations.Get(m.ID); got.State != mitctl.StateExpired {
		t.Fatalf("state at t=3: %v", got.State)
	}
	if installedRules(x) != 0 {
		t.Fatalf("rules at t=3: %d", installedRules(x))
	}
}

func TestScenarioMonitorRecordsFlows(t *testing.T) {
	x, members := buildTestIXP(t, 8, 0.0, false)
	victim := members[0]
	target := victimAddr(victim)
	rng := stats.NewRand(4)
	attack := traffic.NewAttack(traffic.VectorNTP, target, PeersOf(members[1:]), 5e8, 0, 20, rng)
	attack.RampTicks = 0
	series, err := engine.New(engineConfig(x, 10, []engine.VictimSpec{{Port: victim.Name}}, [][]engine.Source{{attack}})).Run()
	if err != nil {
		t.Fatal(err)
	}
	samples, monitor := series[0].Samples, series[0].Monitor
	// The monitor saw every delivered flow: UDP/123 dominates the
	// source-port histogram and the per-bin series matches the samples.
	top := monitor.TopSrcPorts(1)
	if len(top) == 0 || top[0].Port != 123 {
		t.Fatalf("top ports: %+v", top)
	}
	if got := monitor.PeerCount(5, 0, nil); got != samples[5].ActivePeers {
		t.Fatalf("monitor peers %d != sample peers %d", got, samples[5].ActivePeers)
	}
	bins, bytes := monitorSeries(monitor)
	if len(bins) != 10 {
		t.Fatalf("bins: %d", len(bins))
	}
	wantBytes := samples[3].DeliveredBps / 8
	if math.Abs(bytes[3]-wantBytes) > wantBytes*1e-6 {
		t.Fatalf("series[3] = %v, want %v", bytes[3], wantBytes)
	}
}

// monitorSeries returns a flow monitor's per-bin total bytes as (bins,
// values) aligned slices.
func monitorSeries(c *flowmon.Collector) (bins []int, bytes []float64) {
	bins = c.Bins()
	bytes = make([]float64, len(bins))
	for i, b := range bins {
		bytes[i] = c.TotalBytes(b)
	}
	return bins, bytes
}
