package mitctl

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/irr"
	"stellar/internal/netpkt"
)

// harness is a minimal data plane: n member ports behind a QoS manager
// with a generous hardware budget, each member owning 100.<i>.0.0/24.
type harness struct {
	fab    *fabric.Fabric
	mgr    *core.QoSManager
	router *hw.EdgeRouter
	reg    *irr.Registry
	macs   map[string]netpkt.MAC
	asns   map[string]uint32
}

func memberName(i int) string { return fmt.Sprintf("AS%d", 64512+i) }

func newHarness(t *testing.T, n int, limits *hw.Limits) *harness {
	t.Helper()
	h := &harness{
		fab:  fabric.New(),
		reg:  irr.NewRegistry(),
		macs: make(map[string]netpkt.MAC),
		asns: make(map[string]uint32),
	}
	portIndex := make(map[string]int, n)
	for i := 0; i < n; i++ {
		name := memberName(i)
		mac := netpkt.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}
		if err := h.fab.AddPort(fabric.NewPort(name, mac, 1e9)); err != nil {
			t.Fatal(err)
		}
		h.macs[name] = mac
		h.asns[name] = uint32(64512 + i)
		h.reg.Register(uint32(64512+i), netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(i), 0, 0}), 24))
		portIndex[name] = i
	}
	lim := hw.DefaultEdgeRouterLimits(n, hw.RTBHUnitN)
	if limits != nil {
		lim = *limits
	}
	h.router = hw.NewEdgeRouter(lim)
	h.mgr = core.NewQoSManager(h.fab, h.router, portIndex)
	return h
}

func (h *harness) config() Config {
	return Config{
		Manager:    h.mgr,
		QueueRate:  1000, // effectively unthrottled
		QueueBurst: 1000,
		Validator: &IRRValidator{Registry: h.reg, ASNOf: func(name string) (uint32, bool) {
			asn, ok := h.asns[name]
			return asn, ok
		}},
		MemberMAC: func(name string) (netpkt.MAC, bool) {
			mac, ok := h.macs[name]
			return mac, ok
		},
	}
}

func (h *harness) target(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(i), 0, 10}), 32)
}

// dropSpec is the canonical amplification mitigation for member i.
func dropSpec(i int) Spec {
	m := fabric.MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	return Spec{
		Requester: memberName(i),
		Target:    netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(i), 0, 10}), 32),
		Match:     m,
		Action:    fabric.ActionDrop,
	}
}

func ruleCount(t *testing.T, h *harness, member string) int {
	t.Helper()
	port, err := h.fab.PortByName(member)
	if err != nil {
		t.Fatal(err)
	}
	return port.RuleCount()
}

func TestLifecycleRequestInstallWithdraw(t *testing.T) {
	h := newHarness(t, 2, nil)
	ctl := New(h.config())
	var events []string
	ctl.Subscribe(func(ev Event) { events = append(events, ev.Type.String()) })

	m, err := ctl.Request(dropSpec(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StatePending {
		t.Fatalf("state after request: %v", m.State)
	}
	if m.ID != DeriveID(dropSpec(0)) {
		t.Fatalf("derived ID: %s", m.ID)
	}
	if got := ruleCount(t, h, memberName(0)); got != 0 {
		t.Fatalf("rules before Process: %d", got)
	}

	if n := ctl.Process(1); n != 1 {
		t.Fatalf("applied: %d", n)
	}
	got, ok := ctl.Get(m.ID)
	if !ok || got.State != StateActive || got.InstalledAt != 1 {
		t.Fatalf("after install: %+v", got)
	}
	if rc := ruleCount(t, h, memberName(0)); rc != 1 {
		t.Fatalf("rules installed: %d", rc)
	}
	// The fabric rule carries the mitigation ID as its tag.
	port, _ := h.fab.PortByName(memberName(0))
	if _, err := port.Rule(m.ID); err != nil {
		t.Fatalf("rule not tagged with mitigation ID: %v", err)
	}
	if wait := got.InstalledAt - got.RequestedAt; wait != 1 {
		t.Fatalf("signal-to-configuration wait: %v", wait)
	}

	if err := ctl.Withdraw(m.ID, memberName(0), 2); err != nil {
		t.Fatal(err)
	}
	ctl.Process(3)
	if rc := ruleCount(t, h, memberName(0)); rc != 0 {
		t.Fatalf("rules after withdraw: %d", rc)
	}
	got, _ = ctl.Get(m.ID)
	if got.State != StateWithdrawn {
		t.Fatalf("final state: %v", got.State)
	}
	want := []string{"requested", "validated", "installed", "withdrawn"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events: %v, want %v", events, want)
	}
}

func TestTTLExpiryDrivenByProcess(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	spec := dropSpec(0)
	spec.TTL = 5
	m, err := ctl.Request(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExpiresAt != 5 {
		t.Fatalf("ExpiresAt: %v", m.ExpiresAt)
	}
	ctl.Process(1)
	if got, _ := ctl.Get(m.ID); got.State != StateActive {
		t.Fatalf("state: %v", got.State)
	}
	if got, _ := ctl.Get(m.ID); got.TTLRemaining(2) != 3 {
		t.Fatalf("ttl remaining: %v", got.TTLRemaining(2))
	}
	// Before the deadline: nothing happens.
	ctl.Process(4.9)
	if got, _ := ctl.Get(m.ID); got.State != StateActive {
		t.Fatalf("expired early: %v", got.State)
	}
	// The expiry and its rule removal ride the same Process call.
	ctl.Process(5)
	got, _ := ctl.Get(m.ID)
	if got.State != StateExpired {
		t.Fatalf("state at deadline: %v", got.State)
	}
	if rc := ruleCount(t, h, memberName(0)); rc != 0 {
		t.Fatalf("rules after expiry: %d", rc)
	}
}

func TestRefreshIsIdempotent(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	spec := dropSpec(0)
	spec.TTL = 10
	m, err := ctl.Request(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Process(1)
	applied := ctl.AppliedChanges()

	// Re-request at t=6: same content, so nothing new installs and the
	// TTL clock re-arms from 6.
	m2, err := ctl.Request(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != m.ID {
		t.Fatalf("refresh changed ID: %s vs %s", m2.ID, m.ID)
	}
	if m2.ExpiresAt != 16 {
		t.Fatalf("refreshed ExpiresAt: %v", m2.ExpiresAt)
	}
	ctl.Process(7)
	if ctl.AppliedChanges() != applied {
		t.Fatalf("refresh caused churn: %d -> %d changes", applied, ctl.AppliedChanges())
	}
	if rc := ruleCount(t, h, memberName(0)); rc != 1 {
		t.Fatalf("rules after refresh: %d", rc)
	}
	// Without the refresh it would have expired at 10; now it lives.
	ctl.Process(12)
	if got, _ := ctl.Get(m.ID); got.State != StateActive {
		t.Fatalf("state at 12: %v", got.State)
	}
	ctl.Process(16)
	if got, _ := ctl.Get(m.ID); got.State != StateExpired {
		t.Fatalf("state at 16: %v", got.State)
	}
}

func TestExpiryRacingWithdraw(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	spec := dropSpec(0)
	spec.TTL = 5
	m, _ := ctl.Request(spec, 0)
	ctl.Process(1)

	// Expiry fires first; a late withdraw of the already-expired
	// mitigation is a clean no-op, not an error, and the state stays
	// Expired.
	ctl.Process(5)
	if err := ctl.Withdraw(m.ID, memberName(0), 5); err != nil {
		t.Fatalf("withdraw after expiry: %v", err)
	}
	got, _ := ctl.Get(m.ID)
	if got.State != StateExpired {
		t.Fatalf("state: %v", got.State)
	}
	if ctl.ErrorCount() != 0 {
		t.Fatalf("double-removal errors:\n%s", ctl.GlassErrors())
	}
	if rc := ruleCount(t, h, memberName(0)); rc != 0 {
		t.Fatalf("rules: %d", rc)
	}

	// The mirror race: withdraw lands just before the TTL deadline; the
	// later Process must not flip the state to Expired or double-remove.
	m2spec := dropSpec(0)
	m2spec.Match.SrcPort = 53
	m2spec.TTL = 5
	m2, _ := ctl.Request(m2spec, 10)
	ctl.Process(11)
	if err := ctl.Withdraw(m2.ID, memberName(0), 14.9); err != nil {
		t.Fatal(err)
	}
	ctl.Process(15)
	got2, _ := ctl.Get(m2.ID)
	if got2.State != StateWithdrawn {
		t.Fatalf("state: %v", got2.State)
	}
	if ctl.ErrorCount() != 0 {
		t.Fatalf("double-removal errors:\n%s", ctl.GlassErrors())
	}
}

func TestIRRValidationRejection(t *testing.T) {
	h := newHarness(t, 2, nil)
	ctl := New(h.config())
	// Member 0 tries to blackhole member 1's space: a hijack.
	spec := dropSpec(0)
	spec.Target = h.target(1)
	_, err := ctl.Request(spec, 0)
	if !errors.Is(err, ErrValidation) {
		t.Fatalf("err: %v", err)
	}
	// The rejection is observable in the store; nothing reaches the
	// data plane.
	snap := ctl.Snapshot()
	if len(snap.Mitigations) != 1 || snap.Mitigations[0].State != StateRejected {
		t.Fatalf("snapshot: %+v", snap.Mitigations)
	}
	if snap.Mitigations[0].LastError == "" {
		t.Fatal("rejection lost its reason")
	}
	ctl.Process(1)
	if rc := ruleCount(t, h, memberName(0)); rc != 0 {
		t.Fatalf("rules: %d", rc)
	}
	// An unknown member is rejected the same way.
	ghost := dropSpec(0)
	ghost.Requester = "ghost"
	if _, err := ctl.Request(ghost, 0); !errors.Is(err, ErrValidation) {
		t.Fatalf("ghost err: %v", err)
	}
}

func TestSpecMismatchOnLiveID(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	spec := dropSpec(0)
	spec.ID = "mit:explicit"
	if _, err := ctl.Request(spec, 0); err != nil {
		t.Fatal(err)
	}
	changed := spec
	changed.Match.SrcPort = 53
	if _, err := ctl.Request(changed, 1); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("err: %v", err)
	}
}

func TestWithdrawOwnership(t *testing.T) {
	h := newHarness(t, 2, nil)
	ctl := New(h.config())
	m, _ := ctl.Request(dropSpec(0), 0)
	if err := ctl.Withdraw(m.ID, memberName(1), 1); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign withdraw: %v", err)
	}
	if err := ctl.Withdraw("mit:ghost", memberName(0), 1); !errors.Is(err, ErrUnknownMitigation) {
		t.Fatalf("unknown withdraw: %v", err)
	}
	// Operator tooling (empty requester) bypasses the ownership check.
	if err := ctl.Withdraw(m.ID, "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestPerPeerScope(t *testing.T) {
	h := newHarness(t, 3, nil)
	ctl := New(h.config())
	spec := dropSpec(0)
	spec.Scope = ScopePerPeer
	spec.Peers = []string{memberName(1), memberName(2)}
	m, err := ctl.Request(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.RuleIDs) != 2 {
		t.Fatalf("rule IDs: %v", m.RuleIDs)
	}
	ctl.Process(1)
	port, _ := h.fab.PortByName(memberName(0))
	if port.RuleCount() != 2 {
		t.Fatalf("rules: %d", port.RuleCount())
	}
	// Each rule pins one peer's MAC: only their traffic dies.
	for i, peer := range spec.Peers {
		r, err := port.Rule(m.RuleIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Match.SrcMAC == nil || *r.Match.SrcMAC != h.macs[peer] {
			t.Fatalf("rule %s MAC: %v", m.RuleIDs[i], r.Match.SrcMAC)
		}
	}
	// Unknown peer: validation failure.
	bad := dropSpec(0)
	bad.Match.SrcPort = 53
	bad.Scope = ScopePerPeer
	bad.Peers = []string{"ghost"}
	if _, err := ctl.Request(bad, 2); !errors.Is(err, ErrValidation) {
		t.Fatalf("ghost peer: %v", err)
	}
}

func TestAdmissionMaxPerMember(t *testing.T) {
	h := newHarness(t, 1, nil)
	cfg := h.config()
	cfg.MaxActivePerMember = 2
	ctl := New(cfg)
	for port := 0; port < 2; port++ {
		s := dropSpec(0)
		s.Match.SrcPort = int32(123 + port)
		if _, err := ctl.Request(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	over := dropSpec(0)
	over.Match.SrcPort = 999
	if _, err := ctl.Request(over, 0); !errors.Is(err, ErrAdmission) {
		t.Fatalf("admission: %v", err)
	}
	// Withdrawing one frees budget.
	if err := ctl.Withdraw(DeriveID(func() Spec { s := dropSpec(0); s.Match.SrcPort = 123; return s }()), memberName(0), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Request(over, 2); err != nil {
		t.Fatalf("after free: %v", err)
	}
}

func TestHardwareAdmissionRejection(t *testing.T) {
	// A router with a 2-criteria TCAM budget: the drop spec needs 3
	// (proto, dst prefix, src port), so the install is refused and the
	// mitigation ends Rejected.
	lim := hw.DefaultEdgeRouterLimits(1, hw.RTBHUnitN)
	lim.L34CriteriaTotal = 2
	h := newHarness(t, 1, &lim)
	ctl := New(h.config())
	m, err := ctl.Request(dropSpec(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Process(1)
	got, _ := ctl.Get(m.ID)
	if got.State != StateRejected {
		t.Fatalf("state: %v", got.State)
	}
	if got.LastError == "" || ctl.ErrorCount() == 0 {
		t.Fatal("hardware rejection lost its reason")
	}
	if rc := ruleCount(t, h, memberName(0)); rc != 0 {
		t.Fatalf("rules: %d", rc)
	}
	// A later withdraw of the rejected mitigation must not emit
	// spurious removals.
	if err := ctl.Withdraw(m.ID, memberName(0), 2); err != nil {
		t.Fatal(err)
	}
	before := ctl.ErrorCount()
	ctl.Process(3)
	if ctl.ErrorCount() != before {
		t.Fatalf("withdraw of rejected mitigation produced errors:\n%s", ctl.GlassErrors())
	}
}

func TestUsageSurvivesRemoval(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	m, _ := ctl.Request(dropSpec(0), 0)
	ctl.Process(1)

	port, _ := h.fab.PortByName(memberName(0))
	attack := fabric.Offer{
		Flow: &netpkt.FlowKey{
			SrcMAC: netpkt.MAC{0x02, 0xff, 0, 0, 0, 9},
			Src:    netip.MustParseAddr("198.51.100.9"),
			Dst:    netip.MustParseAddr("100.0.0.10"),
			Proto:  netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
		},
		Bytes: 1e6, Packets: 1000,
	}
	port.Egress([]fabric.Offer{attack}, 1, nil)

	u, err := ctl.Usage(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if u.DroppedBytes != 1e6 || u.MatchedBytes != 1e6 {
		t.Fatalf("live usage: %+v", u)
	}
	// After withdrawal the rule (and its live counters) are gone, but
	// the mitigation keeps its final tally.
	ctl.Withdraw(m.ID, memberName(0), 2)
	ctl.Process(3)
	u, err = ctl.Usage(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if u.DroppedBytes != 1e6 {
		t.Fatalf("accrued usage: %+v", u)
	}
}

func TestRerequestOverlappingGenerations(t *testing.T) {
	// Withdraw and immediately re-request the same spec before the
	// removal has been applied: the queue holds install#1, remove#1,
	// install#2 and must converge on exactly one installed rule.
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	spec := dropSpec(0)
	m, _ := ctl.Request(spec, 0)
	ctl.Process(1)
	if err := ctl.Withdraw(m.ID, memberName(0), 2); err != nil {
		t.Fatal(err)
	}
	m2, err := ctl.Request(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != m.ID {
		t.Fatalf("IDs: %s vs %s", m2.ID, m.ID)
	}
	ctl.Process(3)
	if rc := ruleCount(t, h, memberName(0)); rc != 1 {
		t.Fatalf("rules after generation overlap: %d", rc)
	}
	got, _ := ctl.Get(m.ID)
	if got.State != StateActive {
		t.Fatalf("state: %v", got.State)
	}
	if ctl.ErrorCount() != 0 {
		t.Fatalf("errors:\n%s", ctl.GlassErrors())
	}
}

func TestSnapshotVersioning(t *testing.T) {
	h := newHarness(t, 1, nil)
	ctl := New(h.config())
	v0 := ctl.Snapshot().Version
	m, _ := ctl.Request(dropSpec(0), 0)
	v1 := ctl.Snapshot().Version
	if v1 <= v0 {
		t.Fatalf("version did not advance: %d -> %d", v0, v1)
	}
	ctl.Process(1)
	v2 := ctl.Snapshot().Version
	if v2 <= v1 {
		t.Fatalf("install did not advance version: %d -> %d", v1, v2)
	}
	// No transitions, no version change.
	if v3 := ctl.Snapshot().Version; v3 != v2 {
		t.Fatalf("idle version churn: %d -> %d", v2, v3)
	}
	snap := ctl.Snapshot()
	if len(snap.Mitigations) != 1 || snap.Mitigations[0].ID != m.ID {
		t.Fatalf("snapshot: %+v", snap)
	}
	// Prune drops finals only.
	ctl.Withdraw(m.ID, memberName(0), 2)
	if n := ctl.Prune(ctl.Snapshot().Version + 1); n != 1 {
		t.Fatalf("pruned: %d", n)
	}
	if len(ctl.Snapshot().Mitigations) != 0 {
		t.Fatal("prune left finals behind")
	}
}

func TestQueuePacingLatency(t *testing.T) {
	// A 1-change/s queue with burst 1: three requests at t=0 install at
	// t=1, 2, 3 — the signal-to-configuration delay of Figure 10(b).
	h := newHarness(t, 1, nil)
	cfg := h.config()
	cfg.QueueRate = 1
	cfg.QueueBurst = 1
	ctl := New(cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		s := dropSpec(0)
		s.Match.SrcPort = int32(100 + i)
		m, err := ctl.Request(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}
	installed := func() int {
		n := 0
		for _, id := range ids {
			if m, _ := ctl.Get(id); m.State == StateActive {
				n++
			}
		}
		return n
	}
	for tick := 1; tick <= 3; tick++ {
		ctl.Process(float64(tick))
		if got := installed(); got != tick {
			t.Fatalf("installed after t=%d: %d", tick, got)
		}
	}
	for i, id := range ids {
		m, _ := ctl.Get(id)
		if wait := m.InstalledAt - m.RequestedAt; wait != float64(i+1) {
			t.Fatalf("change %d waited %v, want %d", i, wait, i+1)
		}
	}
}
