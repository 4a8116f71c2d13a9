package routeserver

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/irr"
)

const ixpASN = 6695 // DE-CIX-like IXP ASN

var blackholeNH = netip.MustParseAddr("80.81.193.66")

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func newRS(t *testing.T, peers ...PeerConfig) *RouteServer {
	t.Helper()
	policy := irr.NewPolicy()
	rs := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH, Policy: policy})
	for _, p := range peers {
		if err := rs.AddPeer(p); err != nil {
			t.Fatal(err)
		}
		// Register each member's /24 in the IRR.
		policy.IRR.Register(p.ASN, netip.PrefixFrom(
			netip.AddrFrom4([4]byte{100, 10, byte(p.ASN % 256), 0}), 24))
	}
	return rs
}

func peerCfg(i int) PeerConfig {
	return PeerConfig{
		Name:  string(rune('A' + i)),
		ASN:   uint32(64512 + i),
		BGPID: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
	}
}

func announce(asn uint32, prefix netip.Prefix, communities ...bgp.Community) *bgp.Update {
	return &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{asn}}},
			NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, byte(asn % 200)}),
			Communities: communities,
		},
		NLRI: []bgp.PathPrefix{{Prefix: prefix}},
	}
}

// peerUpdate is one UPDATE owed to one member: the export batches
// flattened, the shape most assertions here read.
type peerUpdate struct {
	Peer   string
	Update *bgp.Update
}

func handleUpdate(rs *RouteServer, peer string, u *bgp.Update) ([]peerUpdate, []Rejection, error) {
	batches, rejections, err := rs.HandleUpdateBatch(peer, u)
	var out []peerUpdate
	for _, b := range batches {
		for _, u := range b.Updates {
			out = append(out, peerUpdate{Peer: b.Peer, Update: u})
		}
	}
	return out, rejections, err
}

func TestAddPeerDuplicate(t *testing.T) {
	rs := newRS(t, peerCfg(0))
	if err := rs.AddPeer(peerCfg(0)); err != ErrDuplicatePeer {
		t.Fatalf("err = %v", err)
	}
	if got := rs.Peers(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("Peers: %v", got)
	}
}

func TestUnknownPeer(t *testing.T) {
	rs := newRS(t, peerCfg(0))
	if _, _, err := handleUpdate(rs, "Z", &bgp.Update{}); err != ErrUnknownPeer {
		t.Fatalf("err = %v", err)
	}
	if _, err := rs.HandleWithdrawAll("Z"); err != ErrUnknownPeer {
		t.Fatalf("withdraw err = %v", err)
	}
}

func TestAnnouncePropagation(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1), peerCfg(2))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	exports, rejs, err := handleUpdate(rs, "A", announce(64512, prefix))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Fatalf("rejections: %+v", rejs)
	}
	// Exported to B and C, not back to A.
	if len(exports) != 2 {
		t.Fatalf("exports: %d, want 2", len(exports))
	}
	seen := map[string]bool{}
	for _, e := range exports {
		seen[e.Peer] = true
		if len(e.Update.NLRI) != 1 || e.Update.NLRI[0].Prefix != prefix {
			t.Fatalf("export NLRI: %+v", e.Update.NLRI)
		}
		// Next hop unchanged for plain routes (route server transparency).
		if e.Update.Attrs.NextHop == blackholeNH {
			t.Fatal("plain route got blackhole next hop")
		}
	}
	if !seen["B"] || !seen["C"] || seen["A"] {
		t.Fatalf("targets: %v", seen)
	}
	if rs.Table().Len() != 1 {
		t.Fatalf("table len: %d", rs.Table().Len())
	}
}

func TestImportRejectsUnregistered(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	_, rejs, err := handleUpdate(rs, "A", announce(64512, pfx("8.8.8.0/24")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatalf("rejections: %+v", rejs)
	}
	if rs.Table().Len() != 0 {
		t.Fatal("rejected route stored")
	}
	if len(rs.Rejections()) != 1 {
		t.Fatal("rejection log")
	}
}

// TestRejectionLogBounded: a peer that keeps announcing filtered routes
// must not grow the route server's heap. The log keeps a recent window,
// the newest entry always in it, and the lifetime counter stays exact.
func TestRejectionLogBounded(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	const perUpdate, updates = 100, 3*maxRetainedRejections/100 + 1
	var last netip.Prefix
	for u := 0; u < updates; u++ {
		up := announce(64512, netip.Prefix{})
		up.NLRI = make([]bgp.PathPrefix, perUpdate)
		for i := range up.NLRI {
			// Unregistered space: every prefix is refused.
			last = netip.PrefixFrom(netip.AddrFrom4([4]byte{8, byte(u >> 8), byte(u), byte(i)}), 32)
			up.NLRI[i].Prefix = last
		}
		_, rejs, err := handleUpdate(rs, "A", up)
		if err != nil {
			t.Fatal(err)
		}
		if len(rejs) != perUpdate {
			t.Fatalf("update %d: %d rejections, want %d", u, len(rejs), perUpdate)
		}
		if n := len(rs.Rejections()); n > maxRetainedRejections {
			t.Fatalf("update %d: log holds %d entries, bound %d", u, n, maxRetainedRejections)
		}
	}
	log := rs.Rejections()
	if len(log) < maxRetainedRejections/2 {
		t.Fatalf("log holds %d entries, want at least the recent half-window %d", len(log), maxRetainedRejections/2)
	}
	if got := log[len(log)-1].Prefix; got != last {
		t.Fatalf("newest rejection is %v, want %v", got, last)
	}
	if got, want := rs.RejectionCount(), perUpdate*updates; got != want {
		t.Fatalf("RejectionCount = %d, want %d", got, want)
	}
}

func TestImportRejectsHijack(t *testing.T) {
	// Peer B announces A's registered prefix: IRR check must reject.
	rs := newRS(t, peerCfg(0), peerCfg(1))
	prefixA := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	_, rejs, err := handleUpdate(rs, "B", announce(64513, prefixA))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatalf("hijack accepted: %+v", rejs)
	}
}

func TestImportRejectsWrongFirstAS(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	u := announce(64512, prefix)
	// Peer B sends an update whose AS path starts with A's ASN.
	_, rejs, err := handleUpdate(rs, "B", u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatal("path spoof accepted")
	}
}

func TestMoreSpecificRequiresBlackholeCommunity(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	host := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 10}), 32)

	// Without the community: rejected.
	_, rejs, err := handleUpdate(rs, "A", announce(64512, host))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatal("/32 without blackhole community accepted")
	}

	// With BLACKHOLE: accepted, next hop rewritten on export.
	exports, rejs, err := handleUpdate(rs, "A", announce(64512, host, bgp.CommunityBlackhole))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Fatalf("blackhole /32 rejected: %+v", rejs)
	}
	if len(exports) != 1 {
		t.Fatalf("exports: %d", len(exports))
	}
	got := exports[0].Update
	if got.Attrs.NextHop != blackholeNH {
		t.Fatalf("next hop = %v, want blackhole %v", got.Attrs.NextHop, blackholeNH)
	}
	if !got.Attrs.HasCommunity(bgp.CommunityNoExport) {
		t.Fatal("blackhole export missing no-export")
	}
}

// TestPlainPrefixLengthLimits pins the import policy's prefix-length
// limits from one peer: a plain route may be as specific as /24 (IPv4)
// or /48 (IPv6); only a blackholing announcement — BLACKHOLE or an
// Advanced Blackholing signal — may go further, down to a host route.
func TestPlainPrefixLengthLimits(t *testing.T) {
	rs := newRS(t, peerCfg(0))
	rs.cfg.Policy.IRR.Register(64512, pfx("2001:db8:10::/32"))
	signal := bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, [6]byte{})
	cases := []struct {
		prefix         string
		blackhole, abh bool
		accept         bool
	}{
		{prefix: "100.10.0.0/24", accept: true},
		{prefix: "2001:db8:10::/48", accept: true},
		{prefix: "100.10.0.128/25"},
		{prefix: "2001:db8:10::/49"},
		{prefix: "100.10.0.10/32", blackhole: true, accept: true},
		{prefix: "2001:db8:10::10/128", blackhole: true, accept: true},
		{prefix: "100.10.0.11/32", abh: true, accept: true},
		{prefix: "2001:db8:10::11/128", abh: true, accept: true},
	}
	for _, c := range cases {
		p := pfx(c.prefix)
		u := announce(64512, p)
		if c.blackhole {
			u.Attrs.Communities = []bgp.Community{bgp.CommunityBlackhole}
		}
		if c.abh {
			u.Attrs.ExtCommunities = []bgp.ExtCommunity{signal}
		}
		if p.Addr().Is6() {
			u.NLRI = nil
			u.Attrs.MPReach = &bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8:ff::1"), NLRI: []bgp.PathPrefix{{Prefix: p}}}
		}
		_, rejs, err := handleUpdate(rs, "A", u)
		if err != nil {
			t.Fatal(err)
		}
		if accepted := len(rejs) == 0; accepted != c.accept {
			t.Errorf("%s (blackhole %v, signal %v): accepted %v, want %v (rejections %+v)",
				c.prefix, c.blackhole, c.abh, accepted, c.accept, rejs)
		}
	}
}

func TestIXPSpecificBlackholeCommunity(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	host := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 10}), 32)
	// IXP_ASN:666 variant.
	_, rejs, err := handleUpdate(rs, "A", announce(64512, host, bgp.MakeCommunity(ixpASN, 666)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Fatalf("IXP:666 rejected: %+v", rejs)
	}
}

func TestExportPolicyBlockAll(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1), peerCfg(2))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	// (0, IXP_ASN): announce to no one.
	exports, _, err := handleUpdate(rs, "A", announce(64512, prefix, bgp.MakeCommunity(0, ixpASN)))
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 0 {
		t.Fatalf("block-all exported to %d peers", len(exports))
	}
}

func TestExportPolicyAllMinusOne(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1), peerCfg(2))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	// (0, 64513): exclude peer B — the "All-1" policy of Figure 3(b).
	exports, _, err := handleUpdate(rs, "A", announce(64512, prefix, bgp.MakeCommunity(0, 64513)))
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 1 || exports[0].Peer != "C" {
		t.Fatalf("All-1 exports: %+v", exports)
	}
}

func TestExportPolicyWhitelist(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1), peerCfg(2))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	// (IXP, 64514): announce only to peer C.
	exports, _, err := handleUpdate(rs, "A", announce(64512, prefix, bgp.MakeCommunity(ixpASN, 64514)))
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 1 || exports[0].Peer != "C" {
		t.Fatalf("whitelist exports: %+v", exports)
	}
}

// TestExportPolicyNamesOnly2ByteASNs pins that a policy community names
// a peer only when the peer's ASN fits its 16-bit value: AS65541's low 16
// bits are 5, yet (0, 5) must not block it and (IXP, 5) must not
// whitelist it.
func TestExportPolicyNamesOnly2ByteASNs(t *testing.T) {
	peers := []PeerConfig{
		{Name: "announcer", ASN: 64512},
		{Name: "as5", ASN: 5},
		{Name: "as65541", ASN: 65536 + 5},
		{Name: "as70000", ASN: 70000},
	}
	for _, tc := range []struct {
		name  string
		comms []bgp.Community
		want  []string
	}{
		{"no policy", nil, []string{"as5", "as65541", "as70000"}},
		{"block AS5", []bgp.Community{bgp.MakeCommunity(0, 5)}, []string{"as65541", "as70000"}},
		{"block AS4464 (70000's low 16 bits)", []bgp.Community{bgp.MakeCommunity(0, 70000-65536)}, []string{"as5", "as65541", "as70000"}},
		{"whitelist AS5", []bgp.Community{bgp.MakeCommunity(ixpASN, 5)}, []string{"as5"}},
		{"whitelist beats block-all", []bgp.Community{bgp.MakeCommunity(0, ixpASN), bgp.MakeCommunity(ixpASN, 5)}, []string{"as5"}},
		{"block all", []bgp.Community{bgp.MakeCommunity(0, ixpASN)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
			if err := rs.AddPeers(peers...); err != nil {
				t.Fatal(err)
			}
			batches, _, err := rs.HandleUpdateBatch("announcer", announce(64512, pfx("100.10.0.0/24"), tc.comms...))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, b := range batches {
				got = append(got, b.Peer)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("exported to %v, want %v", got, tc.want)
			}
		})
	}
}

// TestHandleUpdateAllocsIndependentOfPeers pins the export builder's cost
// per inbound message: announcing one prefix and withdrawing it take the
// same number of allocations with 1 024 registered peers as with 16,
// although each export is owed to every one of them.
func TestHandleUpdateAllocsIndependentOfPeers(t *testing.T) {
	prefix := pfx("100.10.0.0/24")
	ann := announce(64512, prefix)
	wdr := &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: prefix}}}
	allocs := func(n int) float64 {
		rs := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
		cfgs := make([]PeerConfig, n)
		for i := range cfgs {
			cfgs[i] = peerCfg(i)
			cfgs[i].Name = fmt.Sprintf("m%d", i)
		}
		if err := rs.AddPeers(cfgs...); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			for _, u := range []*bgp.Update{ann, wdr} {
				batches, _, err := rs.HandleUpdateBatch("m0", u)
				if err != nil || len(batches) != n-1 {
					t.Fatalf("%d peers: %d batches, err %v", n, len(batches), err)
				}
			}
		})
	}
	small, large := allocs(16), allocs(1024)
	if large != small {
		t.Fatalf("announce+withdraw: %.0f allocs at 1024 peers, %.0f at 16", large, small)
	}
}

func TestWithdrawPropagation(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	if _, _, err := handleUpdate(rs, "A", announce(64512, prefix)); err != nil {
		t.Fatal(err)
	}
	exports, _, err := handleUpdate(rs, "A", &bgp.Update{
		Withdrawn: []bgp.PathPrefix{{Prefix: prefix}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 1 || exports[0].Peer != "B" || len(exports[0].Update.Withdrawn) != 1 {
		t.Fatalf("withdraw exports: %+v", exports)
	}
	if rs.Table().Len() != 0 {
		t.Fatal("withdrawn route still in table")
	}
	// Withdrawing an unknown prefix is a no-op.
	exports, _, err = handleUpdate(rs, "A", &bgp.Update{
		Withdrawn: []bgp.PathPrefix{{Prefix: pfx("9.9.9.0/24")}},
	})
	if err != nil || len(exports) != 0 {
		t.Fatalf("unknown withdraw: %v %v", exports, err)
	}
}

func TestHandleWithdrawAll(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	if _, _, err := handleUpdate(rs, "A", announce(64512, prefix)); err != nil {
		t.Fatal(err)
	}
	exports, err := rs.HandleWithdrawAll("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 1 || len(exports[0].Updates) != 1 || len(exports[0].Updates[0].Withdrawn) != 1 {
		t.Fatalf("session-loss exports: %+v", exports)
	}
	if rs.Table().Len() != 0 {
		t.Fatal("table not cleared")
	}
}

func TestControllerFeedBypassesBestPath(t *testing.T) {
	// Two members announce the same /32 with different blackholing
	// intent; the controller must see both paths (the ADD-PATH
	// rationale of Section 4.3).
	rs := newRS(t, peerCfg(0), peerCfg(1))
	// Shared prefix registered for both (delegation).
	shared := pfx("100.99.0.0/24")
	rs.cfg.Policy.IRR.Register(64512, shared)
	rs.cfg.Policy.IRR.Register(64513, shared)
	host := pfx("100.99.0.7/32")

	var events []ControllerEvent
	rs.Subscribe(func(ev ControllerEvent) { events = append(events, ev) })

	if _, _, err := handleUpdate(rs, "A", announce(64512, host, bgp.CommunityBlackhole)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := handleUpdate(rs, "B", announce(64513, host, bgp.CommunityBlackhole)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("controller events: %d, want 2", len(events))
	}
	if events[0].PathID == events[1].PathID {
		t.Fatal("path IDs must differ per peer")
	}
	if rs.Table().Len() != 2 {
		t.Fatalf("table holds %d paths, want 2 (ADD-PATH)", rs.Table().Len())
	}
	// Best-path export would have hidden one of them.
	if len(rs.Table().Lookup(host)) != 2 {
		t.Fatal("lookup lost a path")
	}
}

func TestControllerFeedWithdraw(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	var events []ControllerEvent
	rs.Subscribe(func(ev ControllerEvent) { events = append(events, ev) })
	if _, _, err := handleUpdate(rs, "A", announce(64512, prefix)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := handleUpdate(rs, "A", &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: prefix}}}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || len(events[1].Withdrawn) != 1 {
		t.Fatalf("events: %+v", events)
	}
}

func TestRejectedAnnouncementNotFedToController(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	var events int
	rs.Subscribe(func(ControllerEvent) { events++ })
	if _, _, err := handleUpdate(rs, "A", announce(64512, pfx("8.8.8.0/24"))); err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Fatal("rejected announcement reached controller")
	}
}

func TestBestPathChangeReexports(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1), peerCfg(2))
	shared := pfx("100.99.0.0/24")
	rs.cfg.Policy.IRR.Register(64512, shared)
	rs.cfg.Policy.IRR.Register(64513, shared)

	// A announces with a long path; B then announces shorter.
	uA := announce(64512, shared)
	uA.Attrs.ASPath = []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512, 65000, 65001}}}
	if _, _, err := handleUpdate(rs, "A", uA); err != nil {
		t.Fatal(err)
	}
	exports, _, err := handleUpdate(rs, "B", announce(64513, shared))
	if err != nil {
		t.Fatal(err)
	}
	// B's shorter path becomes best: exported to A and C.
	if len(exports) != 2 {
		t.Fatalf("re-export count: %d", len(exports))
	}
	// A re-announcing the same (non-best) path triggers no export churn.
	exports, _, err = handleUpdate(rs, "A", uA)
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) != 0 {
		t.Fatalf("non-best re-announce exported: %+v", exports)
	}
}

func TestIsBlackhole(t *testing.T) {
	rs := newRS(t, peerCfg(0))
	a := bgp.PathAttrs{Communities: []bgp.Community{bgp.CommunityBlackhole}}
	if !rs.IsBlackhole(&a) {
		t.Fatal("RFC 7999 community not recognized")
	}
	b := bgp.PathAttrs{Communities: []bgp.Community{bgp.MakeCommunity(ixpASN, 666)}}
	if !rs.IsBlackhole(&b) {
		t.Fatal("IXP:666 not recognized")
	}
	c := bgp.PathAttrs{Communities: []bgp.Community{bgp.MakeCommunity(1, 2)}}
	if rs.IsBlackhole(&c) {
		t.Fatal("random community recognized as blackhole")
	}
}

func TestHasAdvancedBlackholeSignal(t *testing.T) {
	a := bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{
		bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, [6]byte{}),
	}}
	if !HasAdvancedBlackholeSignal(&a) {
		t.Fatal("signal not detected")
	}
	b := bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{
		bgp.MakeExtCommunity(bgp.ExtTypeTwoOctetAS, bgp.ExtSubTypeRouteTarget, [6]byte{}),
	}}
	if HasAdvancedBlackholeSignal(&b) {
		t.Fatal("route target misdetected")
	}
}

func TestLookingGlass(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	shared := pfx("100.99.0.0/24")
	rs.cfg.Policy.IRR.Register(64512, shared)
	rs.cfg.Policy.IRR.Register(64513, shared)
	host := pfx("100.99.0.7/32")
	if _, _, err := handleUpdate(rs, "A", announce(64512, host, bgp.CommunityBlackhole)); err != nil {
		t.Fatal(err)
	}
	uB := announce(64513, host, bgp.CommunityBlackhole)
	uB.Attrs.ASPath = []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64513, 64513}}} // prepended: longer path, registered origin
	if _, _, err := handleUpdate(rs, "B", uB); err != nil {
		t.Fatal(err)
	}

	entries := rs.Glass(host)
	if len(entries) != 2 {
		t.Fatalf("entries: %d", len(entries))
	}
	// Best first: A's shorter path.
	if !entries[0].Best || entries[0].Peer != "A" || entries[1].Best {
		t.Fatalf("best ordering: %+v", entries)
	}
	for _, e := range entries {
		if !e.Blackhole {
			t.Fatalf("blackhole flag missing: %+v", e)
		}
	}
	dump := rs.GlassDump(host)
	if !strings.Contains(dump, "[blackhole]") || !strings.Contains(dump, "*") {
		t.Fatalf("dump:\n%s", dump)
	}
	// Whole-table summary for the zero prefix.
	summary := rs.GlassDump(netip.Prefix{})
	if !strings.Contains(summary, "route server AS6695") || !strings.Contains(summary, "100.99.0.7/32") {
		t.Fatalf("summary:\n%s", summary)
	}
	// Unknown prefix.
	if got := rs.GlassDump(pfx("9.9.9.0/24")); !strings.Contains(got, "no paths") {
		t.Fatalf("unknown: %s", got)
	}
}

func TestBatchedExportCoalescing(t *testing.T) {
	// One inbound UPDATE announcing three blackhole /32s must reach each
	// target as ONE batched UPDATE carrying all three NLRI, not three
	// messages.
	rs := newRS(t, peerCfg(0), peerCfg(1), peerCfg(2))
	base := netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0})
	u := announce(64512, netip.PrefixFrom(base.Next(), 32), bgp.CommunityBlackhole)
	u.NLRI = nil
	var want []netip.Prefix
	addr := base
	for i := 0; i < 3; i++ {
		addr = addr.Next()
		p := netip.PrefixFrom(addr, 32)
		want = append(want, p)
		u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: p})
	}
	batches, rejs, err := rs.HandleUpdateBatch("A", u)
	if err != nil || len(rejs) != 0 {
		t.Fatalf("err=%v rejs=%+v", err, rejs)
	}
	if len(batches) != 2 {
		t.Fatalf("batches: %d, want 2 (B and C)", len(batches))
	}
	for _, b := range batches {
		if b.Peer != "B" && b.Peer != "C" {
			t.Fatalf("unexpected target %s", b.Peer)
		}
		if len(b.Updates) != 1 {
			t.Fatalf("%s got %d updates, want 1 coalesced", b.Peer, len(b.Updates))
		}
		got := b.Updates[0]
		if len(got.NLRI) != 3 {
			t.Fatalf("%s update carries %d NLRI, want 3", b.Peer, len(got.NLRI))
		}
		for i, pp := range got.NLRI {
			if pp.Prefix != want[i] {
				t.Fatalf("NLRI[%d] = %s, want %s", i, pp.Prefix, want[i])
			}
		}
		if got.Attrs.NextHop != blackholeNH {
			t.Fatal("coalesced blackhole export missing next-hop rewrite")
		}
	}

	// Withdrawing two of the three in one message coalesces the same way.
	w := &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: want[0]}, {Prefix: want[1]}}}
	batches, _, err = rs.HandleUpdateBatch("A", w)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("withdraw batches: %d", len(batches))
	}
	for _, b := range batches {
		if len(b.Updates) != 1 || len(b.Updates[0].Withdrawn) != 2 {
			t.Fatalf("%s withdraw batch: %+v", b.Peer, b.Updates)
		}
	}
}

func TestBatchedWithdrawalsPrecedeAnnouncements(t *testing.T) {
	rs := newRS(t, peerCfg(0), peerCfg(1))
	p24 := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 0}), 24)
	host := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(64512 % 256), 9}), 32)
	if _, _, err := handleUpdate(rs, "A", announce(64512, p24)); err != nil {
		t.Fatal(err)
	}
	// One message: withdraw the /24, announce a blackhole /32.
	u := announce(64512, host, bgp.CommunityBlackhole)
	u.Withdrawn = []bgp.PathPrefix{{Prefix: p24}}
	batches, _, err := rs.HandleUpdateBatch("A", u)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Peer != "B" || len(batches[0].Updates) != 2 {
		t.Fatalf("batches: %+v", batches)
	}
	if len(batches[0].Updates[0].Withdrawn) != 1 {
		t.Fatal("withdrawal must come first in the batch")
	}
	if len(batches[0].Updates[1].NLRI) != 1 {
		t.Fatal("announcement must follow the withdrawal")
	}
}

// TestHandleUpdateConcurrent drives the parallel update pipeline from
// many peer goroutines at once (run with -race): concurrent announce,
// re-announce, withdraw, and best-path queries must leave the RIB
// consistent.
func TestHandleUpdateConcurrent(t *testing.T) {
	const peers = 8
	const prefixesPerPeer = 50
	rs := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH}) // no policy: import is lock-free
	var events atomic.Int64
	rs.Subscribe(func(ev ControllerEvent) {
		events.Add(int64(len(ev.Announced) + len(ev.Withdrawn)))
	})
	for i := 0; i < peers; i++ {
		if err := rs.AddPeer(peerCfg(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := peerCfg(i)
			for j := 0; j < prefixesPerPeer; j++ {
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 20, byte(i), byte(j)}), 32)
				u := announce(cfg.ASN, p, bgp.CommunityBlackhole)
				if _, _, err := rs.HandleUpdateBatch(cfg.Name, u); err != nil {
					t.Error(err)
					return
				}
				if j%2 == 0 { // re-announce half of them
					if _, _, err := rs.HandleUpdateBatch(cfg.Name, u); err != nil {
						t.Error(err)
						return
					}
				}
				rs.Table().Lookup(p)
			}
		}(i)
	}
	wg.Wait()
	if got := rs.Table().Len(); got != peers*prefixesPerPeer {
		t.Fatalf("table len = %d, want %d", got, peers*prefixesPerPeer)
	}

	// Concurrent session teardown of every peer empties the table.
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rs.HandleWithdrawAll(peerCfg(i).Name); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := rs.Table().Len(); got != 0 {
		t.Fatalf("table len after teardown = %d, want 0", got)
	}
	if events.Load() == 0 {
		t.Fatal("controller feed saw no events")
	}
}

// TestConcurrentSharedPrefix has every peer fight over the same prefixes:
// per-shard serialization must leave the RIB as the last operations left
// it — every peer ends each round withdrawing, so nothing survives. The
// rib package's TestConcurrentStress pins the cached best path itself
// under the same kind of contention.
func TestConcurrentSharedPrefix(t *testing.T) {
	const peers = 6
	rs := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
	for i := 0; i < peers; i++ {
		if err := rs.AddPeer(peerCfg(i)); err != nil {
			t.Fatal(err)
		}
	}
	shared := make([]netip.Prefix, 8)
	for i := range shared {
		shared[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 30, 0, byte(i)}), 32)
	}
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := peerCfg(i)
			for round := 0; round < 100; round++ {
				for _, p := range shared {
					u := announce(cfg.ASN, p, bgp.CommunityBlackhole)
					if _, _, err := rs.HandleUpdateBatch(cfg.Name, u); err != nil {
						t.Error(err)
						return
					}
				}
				w := &bgp.Update{}
				for _, p := range shared {
					w.Withdrawn = append(w.Withdrawn, bgp.PathPrefix{Prefix: p})
				}
				if _, _, err := rs.HandleUpdateBatch(cfg.Name, w); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, p := range shared {
		if paths := rs.Table().Lookup(p); len(paths) != 0 {
			t.Fatalf("%s: %d paths survive every peer's withdrawal", p, len(paths))
		}
	}
}
