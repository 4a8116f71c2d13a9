package mitctl

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
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
	mgr    *recorder
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
	h.mgr = &recorder{QoSManager: core.NewQoSManager(h.fab, h.router, portIndex), member: map[string]string{}}
	return h
}

// recorder is the harness's QoS manager: it remembers the member of
// every rule ID it was asked to install, so a test can look each one up
// on the member's port.
type recorder struct {
	*core.QoSManager
	mu     sync.Mutex
	member map[string]string // rule ID -> member
}

func (r *recorder) Apply(c core.ConfigChange) error {
	if c.Op == core.OpInstall {
		r.mu.Lock()
		r.member[c.RuleID] = c.Member
		r.mu.Unlock()
	}
	return r.QoSManager.Apply(c)
}

// installedRules returns the rules installed on member's port, sorted by
// ID.
func installedRules(t *testing.T, h *harness, member string) []*fabric.Rule {
	t.Helper()
	port, err := h.fab.PortByName(member)
	if err != nil {
		t.Fatal(err)
	}
	h.mgr.mu.Lock()
	defer h.mgr.mu.Unlock()
	var out []*fabric.Rule
	for id, m := range h.mgr.member {
		if r, err := port.Rule(id); m == member && err == nil {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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
	return len(installedRules(t, h, member))
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
	if len(snap) != 1 || snap[0].State != StateRejected {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap[0].LastError == "" {
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
	if n := ruleCount(t, h, memberName(0)); n != 2 {
		t.Fatalf("rules: %d", n)
	}
	port, _ := h.fab.PortByName(memberName(0))
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

// TestAdmissionMaxPerMember pins the per-member bound on live rules:
// the member's port has a fixed number of QoS-policy slots (Section
// 4.1.2), so with two slots a third mitigation is refused by the
// hardware and ends Rejected, and withdrawing one frees a slot.
func TestAdmissionMaxPerMember(t *testing.T) {
	lim := hw.DefaultEdgeRouterLimits(1, hw.RTBHUnitN)
	lim.QoSPoliciesPerPort = 2
	h := newHarness(t, 1, &lim)
	ctl := New(h.config())
	specFor := func(port int32) Spec {
		s := dropSpec(0)
		s.Match.SrcPort = port
		return s
	}
	for port := int32(123); port < 125; port++ {
		if _, err := ctl.Request(specFor(port), 0); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Process(1)
	over, err := ctl.Request(specFor(999), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Process(3)
	if m, _ := ctl.Get(over.ID); m.State != StateRejected {
		t.Fatalf("third mitigation: %v, want rejected", m.State)
	}
	if got := ruleCount(t, h, memberName(0)); got != 2 {
		t.Fatalf("rules at the slot bound: %d, want 2", got)
	}
	// Withdrawing one frees a slot.
	if err := ctl.Withdraw(DeriveID(specFor(123)), memberName(0), 4); err != nil {
		t.Fatal(err)
	}
	ctl.Process(5)
	if _, err := ctl.Request(specFor(999), 6); err != nil {
		t.Fatalf("after free: %v", err)
	}
	ctl.Process(7)
	if m, _ := ctl.Get(over.ID); m.State != StateActive {
		t.Fatalf("after free: %v, want active", m.State)
	}
	if got := ruleCount(t, h, memberName(0)); got != 2 {
		t.Fatalf("rules after free: %d, want 2", got)
	}
}

func TestHardwareAdmissionRejection(t *testing.T) {
	// A router with a 2-criteria TCAM budget: the drop spec needs 3
	// (proto, dst prefix, src port), so the install is refused and the
	// mitigation ends Rejected, and subscribers hear it.
	lim := hw.DefaultEdgeRouterLimits(1, hw.RTBHUnitN)
	lim.L34CriteriaTotal = 2
	h := newHarness(t, 1, &lim)
	ctl := New(h.config())
	var last Event
	ctl.Subscribe(func(ev Event) { last = ev })
	m, err := ctl.Request(dropSpec(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Process(1)
	got, _ := ctl.Get(m.ID)
	if got.State != StateRejected {
		t.Fatalf("state: %v", got.State)
	}
	if last.Type != EventRejected || last.Mitigation.ID != m.ID || last.Time != 1 {
		t.Fatalf("last event %v %s at %v, want the refused install's EventRejected at 1", last.Type, last.Mitigation.ID, last.Time)
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

	attack := fabric.Offer{
		Flow: &netpkt.FlowKey{
			SrcMAC: netpkt.MAC{0x02, 0xff, 0, 0, 0, 9},
			Src:    netip.MustParseAddr("198.51.100.9"),
			Dst:    netip.MustParseAddr("100.0.0.10"),
			Proto:  netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
		},
		Bytes: 1e6, Packets: 1000,
	}
	var batch fabric.TickBatch
	batch.Load(fabric.TickOffers{memberName(0): {attack}})
	if err := h.fab.Tick(nil, &batch, 1, nil); err != nil {
		t.Fatal(err)
	}

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
	m, _ := ctl.Request(dropSpec(0), 0)
	if m.Version == 0 {
		t.Fatal("request did not stamp a version")
	}
	ctl.Process(1)
	installed, _ := ctl.Get(m.ID)
	if installed.Version <= m.Version {
		t.Fatalf("install did not advance version: %d -> %d", m.Version, installed.Version)
	}
	// No transitions, no version change.
	ctl.Process(2)
	if idle, _ := ctl.Get(m.ID); idle.Version != installed.Version {
		t.Fatalf("idle version churn: %d -> %d", installed.Version, idle.Version)
	}
	if snap := ctl.Snapshot(); len(snap) != 1 || snap[0].ID != m.ID {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestStoreRetiresOldFinals pins the store's bound: churning more than
// three times maxRetainedFinals distinct IDs through request and
// withdrawal keeps at most twice that many entries, the newest
// maxRetainedFinals final ones stay readable, a retired ID reads as one
// never requested, and retirement takes only final mitigations — not a
// live one among thousands, nor a final ID re-requested into a fresh
// lifecycle.
func TestStoreRetiresOldFinals(t *testing.T) {
	h := newHarness(t, 1, nil)
	storeLen := func(ctl *Controller) int {
		ctl.mu.Lock()
		defer ctl.mu.Unlock()
		return len(ctl.mits)
	}
	request := func(ctl *Controller, id string, now float64) {
		t.Helper()
		s := dropSpec(0)
		s.ID = id
		if _, err := ctl.Request(s, now); err != nil {
			t.Fatal(err)
		}
	}
	withdraw := func(ctl *Controller, id string, now float64) {
		t.Helper()
		if err := ctl.Withdraw(id, memberName(0), now); err != nil {
			t.Fatal(err)
		}
	}
	churnID := func(i int) string { return fmt.Sprintf("churn-%d", i) }

	t.Run("churn", func(t *testing.T) {
		ctl := New(h.config())
		const churned = 3*maxRetainedFinals + 7
		for i := 0; i < churned; i++ {
			request(ctl, churnID(i), float64(i))
			withdraw(ctl, churnID(i), float64(i))
			if n := storeLen(ctl); n > 2*maxRetainedFinals {
				t.Fatalf("after %d churned IDs the store holds %d entries, bound %d", i+1, n, 2*maxRetainedFinals)
			}
		}
		for i := churned - maxRetainedFinals; i < churned; i++ {
			if m, ok := ctl.Get(churnID(i)); !ok || m.State != StateWithdrawn {
				t.Fatalf("%s, among the newest %d finals, reads %+v, %v", churnID(i), maxRetainedFinals, m, ok)
			}
			if _, err := ctl.Usage(churnID(i)); err != nil {
				t.Fatalf("usage of %s: %v", churnID(i), err)
			}
		}
		retired := churnID(0)
		if m, ok := ctl.Get(retired); ok {
			t.Fatalf("oldest final %s still stored: %+v", retired, m)
		}
		if _, err := ctl.Usage(retired); !errors.Is(err, ErrUnknownMitigation) {
			t.Fatalf("usage of retired %s: %v, want ErrUnknownMitigation", retired, err)
		}
		if err := ctl.Withdraw(retired, memberName(0), churned); !errors.Is(err, ErrUnknownMitigation) {
			t.Fatalf("withdraw of retired %s: %v, want ErrUnknownMitigation", retired, err)
		}
	})

	t.Run("live", func(t *testing.T) {
		ctl := New(h.config())
		const live = 2*maxRetainedFinals + 100
		for i := 0; i < live; i++ {
			request(ctl, fmt.Sprintf("live-%d", i), 0)
		}
		for i := 0; i < 3*maxRetainedFinals; i++ {
			request(ctl, churnID(i), float64(i))
			withdraw(ctl, churnID(i), float64(i))
			if i == 100 {
				// A final ID re-requested into a fresh lifecycle is live
				// again and outlasts every later retirement.
				request(ctl, churnID(0), float64(i))
			}
		}
		if m, ok := ctl.Get(churnID(0)); !ok || m.State.Final() {
			t.Fatalf("re-requested %s after the churn: %+v, %v; want live", churnID(0), m, ok)
		}
		if n := len(ctl.Active()); n != live+1 {
			t.Fatalf("%d live mitigations after the churn, want %d", n, live+1)
		}
		if n, bound := storeLen(ctl), 2*(live+1+maxRetainedFinals); n > bound {
			t.Fatalf("store holds %d entries with %d live, bound %d", n, live+1, bound)
		}
		if m, ok := ctl.Get(churnID(1)); ok {
			t.Fatalf("oldest final %s still stored beside %d live: %+v", churnID(1), live+1, m)
		}
	})
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
