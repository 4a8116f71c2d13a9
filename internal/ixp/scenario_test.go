package ixp

import (
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// TestScenarioMultiVictimMatchesSingleRuns pins the multi-victim engine
// to N independent single-victim runs: with uncoupled ports (no
// platform cap, no cross-victim rules) the per-victim series must be
// identical either way.
func TestScenarioMultiVictimMatchesSingleRuns(t *testing.T) {
	const nVictims = 3
	build := func() (*IXP, []engine.VictimSpec, [][]engine.Source) {
		x, members := buildTestIXP(t, 24, 0.0, false)
		specs := make([]engine.VictimSpec, nVictims)
		sources := make([][]engine.Source, nVictims)
		for v := 0; v < nVictims; v++ {
			rng := stats.NewRand(uint64(100 + v))
			target := victimAddr(members[v])
			peers := PeersOf(members[nVictims:])
			attack := traffic.NewAttack(traffic.VectorNTP, target, peers,
				float64(v+1)*4e8, 2+v, 25, rng)
			web := traffic.NewWebService(target, peers[:4], 1e8, rng)
			specs[v] = engine.VictimSpec{Port: members[v].Name}
			sources[v] = []engine.Source{attack, web}
		}
		return x, specs, sources
	}

	x, specs, sources := build()
	multiSeries, err := engine.New(engineConfig(x, 30, specs, sources)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(multiSeries) != nVictims {
		t.Fatalf("series: %d", len(multiSeries))
	}

	for v := 0; v < nVictims; v++ {
		x2, specs2, sources2 := build()
		singleSeries, err := engine.New(engineConfig(x2, 30, specs2[v:v+1], sources2[v:v+1])).Run()
		if err != nil {
			t.Fatal(err)
		}
		got, want := multiSeries[v].Samples, singleSeries[0].Samples
		if len(got) != len(want) {
			t.Fatalf("victim %d: %d vs %d samples", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("victim %d tick %d: multi %+v != single %+v", v, i, got[i], want[i])
			}
		}
		// The monitors agree too.
		gm, wm := multiSeries[v].Monitor, singleSeries[0].Monitor
		_, gBytes := monitorSeries(gm)
		_, wBytes := monitorSeries(wm)
		if fmt.Sprint(gBytes) != fmt.Sprint(wBytes) {
			t.Fatalf("victim %d: monitor series diverged", v)
		}
	}
}

// TestScenarioEventOrderDeterministic: events of the same tick apply in
// list order even when the tick values are added out of order and
// duplicated — lists merged by appending keep their relative order.
func TestScenarioEventOrderDeterministic(t *testing.T) {
	x, members := buildTestIXP(t, 4, 0.0, false)
	var order []string
	ev := func(tick int, name string) engine.Event {
		return engine.Event{Tick: tick, Name: name, Do: func() error {
			order = append(order, name)
			return nil
		}}
	}
	cfg := engineConfig(x, 4,
		[]engine.VictimSpec{{Port: members[0].Name}, {Port: members[1].Name}}, nil,
		ev(2, "config-b"), ev(1, "early"), ev(2, "config-a"))
	cfg.Events = append(cfg.Events, ev(2, "appended-b"), ev(2, "appended-a"), ev(1, "appended-early"))
	if _, err := engine.New(cfg).Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "appended-early", "config-b", "config-a", "appended-b", "appended-a"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("event order: %v, want %v", order, want)
	}
}

// TestScenarioSingleVictimEventDuplicateTicks covers one event list:
// duplicated same-tick events added out of order still apply in
// insertion order.
func TestScenarioSingleVictimEventDuplicateTicks(t *testing.T) {
	x, members := buildTestIXP(t, 3, 0.0, false)
	var order []string
	ev := func(tick int, name string) engine.Event {
		return engine.Event{Tick: tick, Name: name, Do: func() error {
			order = append(order, name)
			return nil
		}}
	}
	cfg := engineConfig(x, 6, []engine.VictimSpec{{Port: members[0].Name}}, nil,
		ev(5, "b"), ev(3, "x"), ev(5, "a"), ev(3, "y"))
	if _, err := engine.New(cfg).Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "b", "a"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("event order: %v, want %v", order, want)
	}
}

// TestScenarioPartialSamplesOnEventError pins the documented contract:
// an event error surfaces alongside the samples of every tick completed
// before the failing event.
func TestScenarioPartialSamplesOnEventError(t *testing.T) {
	x, members := buildTestIXP(t, 4, 0.0, false)
	series, err := engine.New(engineConfig(x, 10, []engine.VictimSpec{{Port: members[0].Name}}, nil,
		engine.Event{Tick: 4, Name: "boom", Do: func() error {
			return x.Announce("ghost", members[0].Prefixes[0], nil, nil)
		}})).Run()
	if err == nil {
		t.Fatal("event error swallowed")
	}
	if n := len(series[0].Samples); n != 4 {
		t.Fatalf("partial samples: %d, want 4 (ticks before the failing event)", n)
	}
}

// TestScenarioValidation covers the victim-list error paths of a run on
// an IXP: the engine rejects an empty or duplicated victim list before
// the first tick, and the fabric rejects a port it does not have at the
// first egress.
func TestScenarioValidation(t *testing.T) {
	x, members := buildTestIXP(t, 3, 0.0, false)
	for name, specs := range map[string][]engine.VictimSpec{
		"no victims":            nil,
		"duplicate victim port": {{Port: members[0].Name}, {Port: members[0].Name}},
		"unknown victim port":   {{Port: members[0].Name}, {Port: "ghost"}},
	} {
		if _, err := engine.New(engineConfig(x, 1, specs, nil)).Run(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestScenarioMultiVictimMitigation runs two victims where only one
// gets a blackhole: RTBH must null the honoring peers' traffic at that
// victim while the other victim's series is untouched.
func TestScenarioMultiVictimMitigation(t *testing.T) {
	x, members := buildTestIXP(t, 12, 1.0, false) // everyone honors RTBH
	va, vb := members[0], members[1]
	peers := PeersOf(members[2:])
	rngA, rngB := stats.NewRand(1), stats.NewRand(2)
	targetA, targetB := victimAddr(va), victimAddr(vb)
	attackA := traffic.NewAttack(traffic.VectorNTP, targetA, peers, 5e8, 0, 40, rngA)
	attackA.RampTicks = 0
	attackB := traffic.NewAttack(traffic.VectorNTP, targetB, peers, 5e8, 0, 40, rngB)
	attackB.RampTicks = 0

	if err := x.Announce(va.Name, va.Prefixes[0], nil, nil); err != nil {
		t.Fatal(err)
	}
	host := netip.PrefixFrom(targetA, 32)
	series, err := engine.New(engineConfig(x, 20,
		[]engine.VictimSpec{{Port: va.Name}, {Port: vb.Name}},
		[][]engine.Source{{attackA}, {attackB}},
		engine.Event{Tick: 10, Name: "blackhole A", Do: func() error {
			return x.Announce(va.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil)
		}})).Run()
	if err != nil {
		t.Fatal(err)
	}
	a, b := series[0].Samples, series[1].Samples
	if a[5].DeliveredBps == 0 || a[15].DeliveredBps != 0 {
		t.Fatalf("victim A: pre %v post %v (blackhole must kill all honoring traffic)",
			a[5].DeliveredBps, a[15].DeliveredBps)
	}
	if b[15].DeliveredBps == 0 {
		t.Fatal("victim B's traffic must be unaffected by A's blackhole")
	}
	if series[0].Monitor.PeerCount(15, 0, nil) != 0 {
		t.Fatal("victim A's monitor saw flows after the blackhole")
	}
	if tops := series[1].Monitor.TopSrcPorts(1); len(tops) == 0 || tops[0].Port != 123 {
		t.Fatalf("victim B's monitor top ports: %+v", tops)
	}
}

// nonMemberSource emits flows from a MAC no member owns, alongside a
// real member's flows.
type nonMemberSource struct {
	member traffic.Peer
	target netip.Addr
}

func (s nonMemberSource) AppendOffers(dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	ghostMAC := netpkt.MustParseMAC("02:ee:ee:ee:ee:01")
	return append(dst,
		fabric.Offer{Flow: &netpkt.FlowKey{SrcMAC: s.member.MAC, Src: s.member.SrcIP, Dst: s.target,
			Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}, Bytes: 1e6, Packets: 1000},
		fabric.Offer{Flow: &netpkt.FlowKey{SrcMAC: ghostMAC, Src: netip.MustParseAddr("203.0.113.9"), Dst: s.target,
			Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}, Bytes: 1e6, Packets: 1000})
}

// TestScenarioActivePeersCountsOnlyMembers pins the pre-streaming
// ActivePeers semantics: delivered flows from MACs that are not
// registered members reach the monitor (it is the measurement pipeline)
// but do not inflate the active-peer series.
func TestScenarioActivePeersCountsOnlyMembers(t *testing.T) {
	x, members := buildTestIXP(t, 4, 0.0, false)
	victim := members[0]
	src := PeersOf(members[1:2])[0]
	series, err := engine.New(engineConfig(x, 3,
		[]engine.VictimSpec{{Port: victim.Name}},
		[][]engine.Source{{nonMemberSource{member: src, target: victimAddr(victim)}}})).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := series[0].Samples[1].ActivePeers; got != 1 {
		t.Fatalf("ActivePeers = %d, want 1 (ghost MAC must not count)", got)
	}
	// The monitor itself still sees both source MACs.
	if got := series[0].Monitor.PeerCount(1, 0, nil); got != 2 {
		t.Fatalf("monitor PeerCount = %d, want 2", got)
	}
}
