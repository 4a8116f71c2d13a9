package mitctl

import (
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
)

// signalAttrs builds path attributes carrying the encoded rule specs.
func signalAttrs(t *testing.T, specs ...core.RuleSpec) bgp.PathAttrs {
	t.Helper()
	var attrs bgp.PathAttrs
	for _, s := range specs {
		ec, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		attrs.ExtCommunities = append(attrs.ExtCommunities, ec)
	}
	return attrs
}

// Signals the tests send besides core.DropUDPSrcPort: NTP shaped to the
// paper's 200 Mbps telemetry rate, and all of UDP dropped.
var (
	shapeNTP = core.RuleSpec{Selector: core.SelUDPSrcPort, Proto: netpkt.ProtoUDP, Port: 123, Action: fabric.ActionShape, ShapeRateBps: 200e6}
	dropUDP  = core.RuleSpec{Selector: core.SelProto, Proto: netpkt.ProtoUDP, Action: fabric.ActionDrop}
)

// installedState renders a port's rules channel-independently: sorted
// "match -> action@rate" lines.
func installedState(t *testing.T, h *harness, member string) []string {
	t.Helper()
	var out []string
	for _, r := range installedRules(t, h, member) {
		out = append(out, fmt.Sprintf("%s|%s -> %v@%g", r.ID, r.Match, r.Action, r.ShapeRateBps))
	}
	return out
}

// TestCrossChannelEquivalence pins the acceptance property: the same
// mitigation requested through BGP communities, FlowSpec NLRI and the
// portal produces identical installed state — same mitigation ID, same
// rule tags, same matches — on three independently wired controllers.
func TestCrossChannelEquivalence(t *testing.T) {
	target := netip.MustParsePrefix("100.0.0.10/32")
	run := func(drive func(h *harness, ctl *Controller)) (ids []string, rules []string, snap []Mitigation) {
		h := newHarness(t, 2, nil)
		ctl := New(h.config())
		drive(h, ctl)
		ctl.Process(1)
		for _, m := range ctl.Active() {
			ids = append(ids, m.ID)
		}
		return ids, installedState(t, h, memberName(0)), ctl.Snapshot()
	}

	// Channel 1: BGP community signal IXP:2:123 via the route-server feed.
	commIDs, commRules, _ := run(func(h *harness, ctl *Controller) {
		ch := NewCommunityChannel(ctl)
		ch.HandleEvent(routeserver.ControllerEvent{
			Peer: memberName(0), PeerAS: 64512, PathID: 1,
			Announced: []netip.Prefix{target},
			Attrs:     signalAttrs(t, core.DropUDPSrcPort(123)),
		}, 0)
	})

	// Channel 2: RFC 5575 FlowSpec NLRI with a traffic-rate 0 (drop).
	fsIDs, fsRules, _ := run(func(h *harness, ctl *Controller) {
		fs := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
			bgp.DstPrefix(target),
			bgp.Numeric(bgp.FSIPProto, bgp.Eq(uint64(netpkt.ProtoUDP))),
			bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123)),
		}}
		attrs := &bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(64512, 0)}}
		specs, err := SpecsFromFlowSpec(memberName(0), fs, attrs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			if _, err := ctl.Request(s, 0); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Channel 3: a customer-portal rule referenced by ID.
	portalIDs, portalRules, _ := run(func(h *harness, ctl *Controller) {
		tmpl := fabric.MatchAll()
		tmpl.Proto = netpkt.ProtoUDP
		tmpl.SrcPort = 123
		id := ctl.Portal().Define(memberName(0), tmpl, fabric.ActionDrop, 0)
		if _, err := ctl.RequestFromPortal(memberName(0), id, target, 0, 0); err != nil {
			t.Fatal(err)
		}
	})

	if fmt.Sprint(commIDs) != fmt.Sprint(fsIDs) || fmt.Sprint(fsIDs) != fmt.Sprint(portalIDs) {
		t.Fatalf("mitigation IDs diverge:\n community %v\n flowspec  %v\n portal    %v",
			commIDs, fsIDs, portalIDs)
	}
	if fmt.Sprint(commRules) != fmt.Sprint(fsRules) || fmt.Sprint(fsRules) != fmt.Sprint(portalRules) {
		t.Fatalf("installed state diverges:\n community %v\n flowspec  %v\n portal    %v",
			commRules, fsRules, portalRules)
	}
	if len(commRules) != 1 {
		t.Fatalf("installed rules: %v", commRules)
	}
}

func TestCommunityChannelReplaceAndWithdraw(t *testing.T) {
	h := newHarness(t, 2, nil)
	ctl := New(h.config())
	ch := NewCommunityChannel(ctl)
	target := netip.MustParsePrefix("100.0.0.10/32")

	// Announce with a shape signal.
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Announced: []netip.Prefix{target},
		Attrs:     signalAttrs(t, shapeNTP),
	}, 0)
	ctl.Process(1)
	if got := installedState(t, h, memberName(0)); len(got) != 1 {
		t.Fatalf("after shape: %v", got)
	}
	shapeID := ctl.Active()[0].ID

	// Re-announce with a drop signal: the shape mitigation is withdrawn
	// and the drop installed (the Figure 10c escalation).
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Announced: []netip.Prefix{target},
		Attrs:     signalAttrs(t, dropUDP),
	}, 2)
	ctl.Process(3)
	live := ctl.Active()
	if len(live) != 1 || live[0].ID == shapeID {
		t.Fatalf("after escalation: %+v", live)
	}
	if m, _ := ctl.Get(shapeID); m.State != StateWithdrawn {
		t.Fatalf("shape state: %v", m.State)
	}
	rules := installedState(t, h, memberName(0))
	if len(rules) != 1 {
		t.Fatalf("rules after escalation: %v", rules)
	}

	// Unchanged re-announcement: pure refresh, no churn.
	applied := ctl.AppliedChanges()
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Announced: []netip.Prefix{target},
		Attrs:     signalAttrs(t, dropUDP),
	}, 4)
	ctl.Process(5)
	if ctl.AppliedChanges() != applied {
		t.Fatal("unchanged re-announcement caused churn")
	}

	// Withdrawal tears everything down.
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Withdrawn: []netip.Prefix{target},
	}, 6)
	ctl.Process(7)
	if got := installedState(t, h, memberName(0)); len(got) != 0 {
		t.Fatalf("after withdraw: %v", got)
	}
	if ch.SignalingPaths() != 0 {
		t.Fatalf("signaling paths: %d", ch.SignalingPaths())
	}
}

// TestCommunityChannelMultiPathRefCount pins cross-path reference
// counting: mitigation IDs are content-derived, so two ADD-PATH paths
// carrying the same signal request the SAME mitigation — withdrawing
// one path must not tear it down while the other still announces it.
func TestCommunityChannelMultiPathRefCount(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	ch := NewCommunityChannel(ctl)
	target := netip.MustParsePrefix("100.0.0.10/32")
	attrs := signalAttrs(t, core.DropUDPSrcPort(123))

	// The same announcement on two ADD-PATH paths.
	for pathID := uint32(1); pathID <= 2; pathID++ {
		ch.HandleEvent(routeserver.ControllerEvent{
			Peer: memberName(0), PeerAS: 64512, PathID: pathID,
			Announced: []netip.Prefix{target},
			Attrs:     attrs,
		}, 0)
	}
	ctl.Process(1)
	if live := ctl.Active(); len(live) != 1 {
		t.Fatalf("live: %+v", live)
	}
	id := ctl.Active()[0].ID

	// Path 1 goes away: the mitigation survives on path 2's say-so.
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Withdrawn: []netip.Prefix{target},
	}, 2)
	ctl.Process(3)
	if m, _ := ctl.Get(id); m.State != StateActive {
		t.Fatalf("state after first withdraw: %v", m.State)
	}
	if got := ruleCount(t, h, memberName(0)); got != 1 {
		t.Fatalf("rules after first withdraw: %d", got)
	}

	// The last desiring path goes away: now it tears down.
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 2,
		Withdrawn: []netip.Prefix{target},
	}, 4)
	ctl.Process(5)
	if m, _ := ctl.Get(id); m.State != StateWithdrawn {
		t.Fatalf("state after last withdraw: %v", m.State)
	}
	if got := ruleCount(t, h, memberName(0)); got != 0 {
		t.Fatalf("rules after last withdraw: %d", got)
	}
}

// TestCommunityChannelTTLRefresh pins the keepalive semantics of BGP
// signaling: a community-signaled mitigation carries no TTL, because
// BGP never re-announces an unchanged route. A re-announcement is a
// pure refresh, silence does not expire the mitigation, and only the
// route's withdrawal ends it.
func TestCommunityChannelTTLRefresh(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	ch := NewCommunityChannel(ctl)
	target := netip.MustParsePrefix("100.0.0.10/32")
	announce := func(now float64) {
		ch.HandleEvent(routeserver.ControllerEvent{
			Peer: memberName(0), PeerAS: 64512, PathID: 1,
			Announced: []netip.Prefix{target},
			Attrs:     signalAttrs(t, core.DropUDPSrcPort(123)),
		}, now)
	}

	announce(0)
	ctl.Process(1)
	live := ctl.Active()
	if len(live) != 1 || live[0].ExpiresAt != 0 || live[0].TTL != 0 {
		t.Fatalf("after announce: %+v", live)
	}
	id := live[0].ID

	// Re-announcement at t=5 arms no clock and applies nothing.
	applied := ctl.AppliedChanges()
	announce(5)
	ctl.Process(6)
	if m, _ := ctl.Get(id); m.ExpiresAt != 0 || m.State != StateActive {
		t.Fatalf("after refresh: %+v", m)
	}
	if ctl.AppliedChanges() != applied {
		t.Fatal("refresh caused churn")
	}

	// Long silence: the route is still in the RIB, so the rule stays.
	ctl.Process(1e6)
	if m, _ := ctl.Get(id); m.State != StateActive {
		t.Fatalf("after silence: %v", m.State)
	}
	if got := ruleCount(t, h, memberName(0)); got != 1 {
		t.Fatalf("rules after silence: %d", got)
	}

	// The route's withdrawal ends the mitigation.
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Withdrawn: []netip.Prefix{target},
	}, 1e6+1)
	ctl.Process(1e6 + 2)
	if m, _ := ctl.Get(id); m.State != StateWithdrawn {
		t.Fatalf("after withdraw: %v", m.State)
	}
	if got := ruleCount(t, h, memberName(0)); got != 0 {
		t.Fatalf("rules after withdraw: %d", got)
	}
}

func TestCommunityChannelPortalLookupFailure(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	ch := NewCommunityChannel(ctl)
	ch.HandleEvent(routeserver.ControllerEvent{
		Peer: memberName(0), PeerAS: 64512, PathID: 1,
		Announced: []netip.Prefix{netip.MustParsePrefix("100.0.0.10/32")},
		Attrs:     signalAttrs(t, core.RuleSpec{Selector: core.SelCustom, CustomID: 42}), // never defined
	}, 0)
	ctl.Process(1)
	if len(ctl.Active()) != 0 {
		t.Fatal("undefined portal rule installed something")
	}
	if ctl.ErrorCount() == 0 {
		t.Fatal("portal lookup failure not recorded")
	}
}

func TestSpecsFromFlowSpecMultiValue(t *testing.T) {
	target := netip.MustParsePrefix("100.0.0.10/32")
	fs := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.DstPrefix(target),
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(uint64(netpkt.ProtoUDP))),
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123), bgp.Eq(11211)),
	}}
	attrs := &bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(64512, 0)}}
	specs, err := SpecsFromFlowSpec(memberName(0), fs, attrs, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs: %d", len(specs))
	}
	ports := map[int32]bool{}
	for _, s := range specs {
		if s.TTL != 30 || s.Target != target {
			t.Fatalf("spec: %+v", s)
		}
		ports[s.Match.SrcPort] = true
	}
	if !ports[123] || !ports[11211] {
		t.Fatalf("ports: %v", ports)
	}

	// Both install as separate mitigations on one controller.
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	for _, s := range specs {
		if _, err := ctl.Request(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Process(1)
	if got := installedState(t, h, memberName(0)); len(got) != 2 {
		t.Fatalf("installed: %v", got)
	}

	// No action community → error; no dst prefix → error.
	if _, err := SpecsFromFlowSpec(memberName(0), fs, &bgp.PathAttrs{}, 0); err == nil {
		t.Fatal("missing action accepted")
	}
	noDst := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123)),
	}}
	if _, err := SpecsFromFlowSpec(memberName(0), noDst, attrs, 0); err == nil {
		t.Fatal("missing dst prefix accepted")
	}
}

func TestSpecFromSignalShapeRate(t *testing.T) {
	spec, err := SpecFromSignal(memberName(0), netip.MustParsePrefix("100.0.0.10/32"),
		shapeNTP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Action != fabric.ActionShape || spec.ShapeRateBps != 200e6 {
		t.Fatalf("spec: %+v", spec)
	}
}
