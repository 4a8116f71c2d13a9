package mitctl

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/netpkt"
)

// portSpec is member i's drop of UDP traffic from source port p toward
// its harness target.
func portSpec(i int, p uint16) Spec {
	s := dropSpec(i)
	s.Match.SrcPort = int32(p)
	return s
}

// offerFrom egresses one tick (dt 1 s) of UDP traffic from source port
// p toward member i's target on i's port.
func offerFrom(t *testing.T, h *harness, i int, p uint16, bytes float64) {
	t.Helper()
	port, err := h.fab.PortByName(memberName(i))
	if err != nil {
		t.Fatal(err)
	}
	port.Egress([]fabric.Offer{{
		Flow: &netpkt.FlowKey{
			SrcMAC: netpkt.MAC{0x02, 0xff, 0, 0, 0, 9},
			Src:    netip.MustParseAddr("198.51.100.9"),
			Dst:    h.target(i).Addr(),
			Proto:  netpkt.ProtoUDP, SrcPort: p, DstPort: 443,
		},
		Bytes: bytes, Packets: 1,
	}}, 1, nil)
}

// glassRows builds a controller holding, at t = 7.6:
//   - AS64512's NTP drop, 50 s TTL from t = 0, 1 MB dropped;
//   - AS64512's DNS shape at 8 Mbps, 1 s TTL from t = 7, which passed
//     1 MB of a 2 MB burst and dropped the rest;
//   - AS64512's chargen drop, requested at t = 7.6 and still pending;
//   - AS64513's NTP drop relayed from ixp7, no TTL, 5 MB dropped;
//   - AS64513's chargen drop, withdrawn before it installed.
//
// It returns the controller and every live mitigation's expected
// listing line by ID.
func glassRows(t *testing.T) (*Controller, map[string]string) {
	t.Helper()
	h := newHarness(t, 2, nil)
	c := New(h.config())
	request := func(s Spec, now float64) Mitigation {
		t.Helper()
		m, err := c.Request(s, now)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ntpA := portSpec(0, 123)
	ntpA.TTL = 50
	a1 := request(ntpA, 0)
	ntpB := portSpec(1, 123)
	ntpB.Origin = "ixp7"
	b1 := request(ntpB, 0)
	b2 := request(portSpec(1, 19), 0)
	if err := c.Withdraw(b2.ID, memberName(1), 0.5); err != nil {
		t.Fatal(err)
	}
	c.Process(1)
	offerFrom(t, h, 0, 123, 1e6)
	offerFrom(t, h, 1, 123, 5e6)

	dnsA := portSpec(0, 53)
	dnsA.Action, dnsA.ShapeRateBps, dnsA.TTL = fabric.ActionShape, 8e6, 1
	a2 := request(dnsA, 7)
	c.Process(7)
	offerFrom(t, h, 0, 53, 2e6)
	a3 := request(portSpec(0, 19), 7.6)

	return c, map[string]string{
		a1.ID: "  " + a1.ID + " owner AS64512 state active origin local ttl 42s dropped 1000000 B shaped 0 B\n",
		a2.ID: "  " + a2.ID + " owner AS64512 state active origin local ttl 0s dropped 1000000 B shaped 1000000 B\n",
		a3.ID: "  " + a3.ID + " owner AS64512 state pending origin local ttl - dropped 0 B shaped 0 B\n",
		b1.ID: "  " + b1.ID + " owner AS64513 state active origin via ixp7 ttl - dropped 5000000 B shaped 0 B\n",
	}
}

// listing renders the expected looking-glass text for the given lines,
// in ID order.
func listing(lines map[string]string, owner string) string {
	ids := make([]string, 0, len(lines))
	for id := range lines {
		if owner == "" || strings.HasPrefix(id, "mit:"+owner+":") {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "mitigations: %d active\n", len(ids))
	for _, id := range ids {
		b.WriteString(lines[id])
	}
	return b.String()
}

// TestGlassMitigationRows is the table-driven coverage of the
// looking-glass mitigation listing over a real controller: owner
// filtering, ID order, final mitigations left out, TTL-remaining
// formatting ("ttl -" without a TTL), federation provenance, and each
// mitigation's cumulative dropped and shaped bytes.
func TestGlassMitigationRows(t *testing.T) {
	c, lines := glassRows(t)
	const now = 7.6

	cases := []struct {
		name  string
		ctl   *Controller
		owner string
		want  string
	}{
		{
			name: "empty source",
			ctl:  New(newHarness(t, 1, nil).config()),
			want: "mitigations: 0 active\n",
		},
		{
			name: "all owners, sorted, ttl columns",
			ctl:  c,
			want: listing(lines, ""),
		},
		{
			name:  "owner filter keeps only A",
			ctl:   c,
			owner: memberName(0),
			want:  listing(lines, memberName(0)),
		},
		{
			name:  "owner filter with no matches",
			ctl:   c,
			owner: "AS64999",
			want:  "mitigations: 0 active\n",
		},
		{
			// The all-owner listing is every owner's rows merged in ID
			// order under one header.
			name: "empty owner lists everything",
			ctl:  c,
			want: func() string {
				var b strings.Builder
				n := 0
				for _, owner := range []string{memberName(0), memberName(1)} {
					rows := strings.SplitAfter(c.GlassMitigations(owner, now), "\n")
					n += len(rows) - 2 // header and the empty tail
					for _, r := range rows[1:] {
						b.WriteString(r)
					}
				}
				return fmt.Sprintf("mitigations: %d active\n", n) + b.String()
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.ctl.GlassMitigations(tc.owner, now); got != tc.want {
				t.Fatalf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestLookingGlassMitigations follows one mitigation through the
// listing: the glass reads the store on every call, so the row appears
// pending on request, turns active with its drops counted once
// installed, and leaves when the TTL expires.
func TestLookingGlassMitigations(t *testing.T) {
	h := newHarness(t, 1, nil)
	c := New(h.config())
	spec := dropSpec(0)
	spec.TTL = 10
	m, err := c.Request(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := func(state, ttl string, dropped int) string {
		return fmt.Sprintf("mitigations: 1 active\n  %s owner AS64512 state %s origin local ttl %s dropped %d B shaped 0 B\n",
			m.ID, state, ttl, dropped)
	}
	if got, want := c.GlassMitigations("", 0), row("pending", "10s", 0); got != want {
		t.Fatalf("on request:\n%s\nwant:\n%s", got, want)
	}
	c.Process(1)
	offerFrom(t, h, 0, 123, 3e6)
	if got, want := c.GlassMitigations("", 1), row("active", "9s", 3000000); got != want {
		t.Fatalf("installed:\n%s\nwant:\n%s", got, want)
	}
	c.Process(10)
	if got, want := c.GlassMitigations("", 10), "mitigations: 0 active\n"; got != want {
		t.Fatalf("expired:\n%s\nwant:\n%s", got, want)
	}
}

// failingController returns a controller over a one-member harness
// whose install attempts fail with *fail (nil lets them through). Retry
// is off, so each failed request counts once.
func failingController(t *testing.T, installDeadline float64) (*Controller, *error) {
	t.Helper()
	cfg := newHarness(t, 1, nil).config()
	cfg.InstallDeadline = installDeadline
	fail := new(error)
	cfg.InstallHook = func(core.ConfigChange, int, float64) error { return *fail }
	return New(cfg), fail
}

// TestGlassErrors is the table-driven coverage of the looking-glass
// install-error summary over real failures: per-class counters, a
// deadline abandonment counted both as queue-deadline and under its
// error's class, and the last-error line appearing only once something
// failed.
func TestGlassErrors(t *testing.T) {
	cases := []struct {
		name string
		// drive fails installs on c through fail and returns the
		// expected summary.
		drive func(t *testing.T, c *Controller, fail *error) string
	}{
		{
			name: "zero counters, no last error",
			drive: func(*testing.T, *Controller, *error) string {
				return "install errors: f1 0 f2 0 qos 0 queue-deadline 0 other 0\n"
			},
		},
		{
			name: "every class rendered",
			drive: func(t *testing.T, c *Controller, fail *error) string {
				port := uint16(1000)
				failing := func(err error, n int) {
					*fail = err
					for i := 0; i < n; i++ {
						port++
						c.Request(portSpec(0, port), 0)
						c.Process(0)
					}
				}
				failing(hw.ErrL34Exhausted, 3)
				failing(hw.ErrMACExhausted, 1)
				failing(hw.ErrQoSPoliciesExhausted, 2)
				failing(fmt.Errorf("injected"), 1)
				// Four installs wait out their deadline behind a stall.
				*fail = nil
				c.SetQueueStalled(true)
				var last Mitigation
				for i := 0; i < 4; i++ {
					port++
					last, _ = c.Request(portSpec(0, port), 0)
				}
				c.Process(6)
				c.SetQueueStalled(false)
				c.Process(7)
				return "install errors: f1 3 f2 1 qos 2 queue-deadline 4 other 5\n" +
					fmt.Sprintf("  last: install %s on AS64512: %v\n", last.RuleIDs[0], ErrInstallDeadline)
			},
		},
		{
			name: "last error line when present",
			drive: func(t *testing.T, c *Controller, fail *error) string {
				*fail = hw.ErrL34Exhausted
				m, err := c.Request(dropSpec(0), 0)
				if err != nil {
					t.Fatal(err)
				}
				c.Process(1)
				return "install errors: f1 1 f2 0 qos 0 queue-deadline 0 other 0\n" +
					fmt.Sprintf("  last: install %s on AS64512: hw: F1: L3-L4 filter criteria exhausted\n", m.RuleIDs[0])
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, fail := failingController(t, 5)
			want := tc.drive(t, c, fail)
			if got := c.GlassErrors(); got != want {
				t.Fatalf("got:\n%s\nwant:\n%s", got, want)
			}
		})
	}

	// The summary is read on every query — counters move between calls.
	c, fail := failingController(t, 0)
	*fail = hw.ErrL34Exhausted
	for i, want := range []string{"f1 1 ", "f1 2 "} {
		c.Request(portSpec(0, uint16(i+1)), 0)
		c.Process(0)
		if got := c.GlassErrors(); !strings.Contains(got, want) {
			t.Fatalf("query %d: want %q in:\n%s", i, want, got)
		}
	}
}
