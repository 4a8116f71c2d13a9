package routeserver

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/rib"
)

// refExports is the export builder as it was before batches were kept in
// the registry's name order: a per-UPDATE map of batches keyed by peer
// name, sorted by name at the end. It is the reference TestExportsMatchReference
// compares the live pipeline against.
type refExports struct {
	rs  *RouteServer
	reg *registry

	batches    map[string]*PeerUpdates
	wdr        map[string]*bgp.Update
	ann4, ann6 *bgp.Update
}

func (rb *refExports) targets(best *rib.Path) []string {
	var names []string
	for _, ps := range rb.reg.sorted {
		if rb.rs.exportsTo(best, ps) {
			names = append(names, ps.cfg.Name)
		}
	}
	return names
}

func (rb *refExports) append(peer string, u *bgp.Update) {
	b, ok := rb.batches[peer]
	if !ok {
		b = &PeerUpdates{Peer: peer}
		rb.batches[peer] = b
	}
	b.Updates = append(b.Updates, u)
}

func (rb *refExports) bestChanged(tr rib.BestChange, added *rib.Path) {
	if !tr.Changed() {
		return
	}
	switch {
	case tr.New == nil:
		excluded := ""
		if tr.Old != nil {
			excluded = tr.Old.Key.Peer
		}
		u, ok := rb.wdr[excluded]
		if !ok {
			u = &bgp.Update{}
			rb.wdr[excluded] = u
			for _, name := range rb.reg.order {
				if name != excluded {
					rb.append(name, u)
				}
			}
		}
		if tr.Prefix.Addr().Is4() {
			u.Withdrawn = append(u.Withdrawn, bgp.PathPrefix{Prefix: tr.Prefix})
		} else {
			if u.Attrs.MPUnreach == nil {
				u.Attrs.MPUnreach = &bgp.MPUnreach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast}
			}
			u.Attrs.MPUnreach.NLRI = append(u.Attrs.MPUnreach.NLRI, bgp.PathPrefix{Prefix: tr.Prefix})
		}
	case tr.New == added:
		shared := &rb.ann4
		if !tr.Prefix.Addr().Is4() {
			shared = &rb.ann6
		}
		if *shared == nil {
			*shared = rb.rs.buildExportUpdate(tr.Prefix, added)
			for _, name := range rb.targets(added) {
				rb.append(name, *shared)
			}
		} else if tr.Prefix.Addr().Is4() {
			(*shared).NLRI = append((*shared).NLRI, bgp.PathPrefix{Prefix: tr.Prefix})
		} else {
			(*shared).Attrs.MPReach.NLRI = append((*shared).Attrs.MPReach.NLRI, bgp.PathPrefix{Prefix: tr.Prefix})
		}
	default:
		u := rb.rs.buildExportUpdate(tr.Prefix, tr.New)
		for _, name := range rb.targets(tr.New) {
			rb.append(name, u)
		}
	}
}

func (rb *refExports) finish() []PeerUpdates {
	if len(rb.batches) == 0 {
		return nil
	}
	out := make([]PeerUpdates, 0, len(rb.batches))
	for _, b := range rb.batches {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

func newRefExports(rs *RouteServer) *refExports {
	return &refExports{
		rs: rs, reg: rs.reg.Load(),
		batches: make(map[string]*PeerUpdates),
		wdr:     make(map[string]*bgp.Update),
	}
}

// refHandleUpdateBatch applies u to rs's table like HandleUpdateBatch
// and builds the exports the reference way.
func refHandleUpdateBatch(t *testing.T, rs *RouteServer, peer string, u *bgp.Update) []PeerUpdates {
	t.Helper()
	rb := newRefExports(rs)
	ps := rb.reg.peers[peer]
	for _, pp := range u.AllWithdrawn() {
		key := rib.PathKey{Prefix: pp.Prefix, Peer: peer, PathID: ps.pathID}
		if removed, tr := rs.table.RemoveWithBest(key); removed {
			rb.bestChanged(tr, nil)
		}
	}
	for _, pp := range u.AllAnnounced() {
		if reason, ok := rs.importCheck(ps, pp.Prefix, ps.cfg.ASN, &u.Attrs); !ok {
			t.Fatalf("reference import of %s from %s: %s", pp.Prefix, peer, reason)
		}
		key := rib.PathKey{Prefix: pp.Prefix, Peer: peer, PathID: ps.pathID}
		added, tr := rs.table.AddWithBest(key, ps.cfg.ASN, u.Attrs)
		rb.bestChanged(tr, added)
	}
	return rb.finish()
}

func refHandleWithdrawAll(rs *RouteServer, peer string) []PeerUpdates {
	rb := newRefExports(rs)
	_, changes := rs.table.RemovePeerWithBest(peer)
	for _, tr := range changes {
		rb.bestChanged(tr, nil)
	}
	return rb.finish()
}

// sharing renders which entries of an export set point at the same
// UPDATE: each update is numbered by first appearance.
func sharing(batches []PeerUpdates) []int {
	seen := make(map[*bgp.Update]int)
	var out []int
	for _, b := range batches {
		for _, u := range b.Updates {
			if _, ok := seen[u]; !ok {
				seen[u] = len(seen)
			}
			out = append(out, seen[u])
		}
	}
	return out
}

// refPeer names peers so that name order differs from join order
// ("m10" sorts before "m2").
func refPeer(i int) PeerConfig {
	return PeerConfig{
		Name:  fmt.Sprintf("m%d", i),
		ASN:   uint32(1000 + i),
		BGPID: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
	}
}

// TestExportsMatchReference applies the same UPDATE sequence to two
// identically registered route servers — one through HandleUpdateBatch /
// HandleWithdrawAll, one through the map-and-sort reference — and
// requires deep-equal export sets with the same UPDATE sharing at every
// step.
func TestExportsMatchReference(t *testing.T) {
	for _, n := range []int{1, 2, 64, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			live := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
			ref := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
			cfgs := make([]PeerConfig, n)
			for i := range cfgs {
				cfgs[i] = refPeer(i)
			}
			if err := live.AddPeers(cfgs...); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddPeers(cfgs...); err != nil {
				t.Fatal(err)
			}

			check := func(step string, got, want []PeerUpdates) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: exports diverge:\n got  %+v\n want %+v", step, got, want)
				}
				if g, w := sharing(got), sharing(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: update sharing diverges:\n got  %v\n want %v", step, g, w)
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Peer >= got[i].Peer {
						t.Fatalf("%s: batches not sorted by peer name: %s, %s", step, got[i-1].Peer, got[i].Peer)
					}
				}
			}
			update := func(step string, peer int, u *bgp.Update) {
				t.Helper()
				name := refPeer(peer % n).Name
				got, rejs, err := live.HandleUpdateBatch(name, u)
				if err != nil || len(rejs) > 0 {
					t.Fatalf("%s: err %v, rejections %+v", step, err, rejs)
				}
				check(step, got, refHandleUpdateBatch(t, ref, name, u))
			}
			from := func(peer int, longer bool, communities []bgp.Community, v4 []string, v6 []string) *bgp.Update {
				asn := refPeer(peer % n).ASN
				path := []uint32{asn}
				if longer {
					path = append(path, 64999)
				}
				u := &bgp.Update{Attrs: bgp.PathAttrs{
					Origin:      bgp.OriginIGP,
					ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
					NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, byte(peer)}),
					Communities: communities,
				}}
				for _, p := range v4 {
					u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: pfx(p)})
				}
				if len(v6) > 0 {
					u.Attrs.MPReach = &bgp.MPReach{
						AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
						NextHop: netip.MustParseAddr("2001:db8:ff::1"),
					}
					for _, p := range v6 {
						u.Attrs.MPReach.NLRI = append(u.Attrs.MPReach.NLRI, bgp.PathPrefix{Prefix: pfx(p)})
					}
				}
				return u
			}
			// asn16 is the community value naming a peer's ASN. A standard
			// community names only a 2-byte ASN (exportsTo never matches a
			// larger one), so the steps below must not try to name one.
			asn16 := func(peer int) uint16 {
				asn := refPeer(peer % n).ASN
				if asn > math.MaxUint16 {
					t.Fatalf("AS%d has no 2-byte community value", asn)
				}
				return uint16(asn)
			}

			update("coalesced v4+v6 announce", 0, from(0, false, nil,
				[]string{"100.10.0.0/24", "100.10.1.0/24", "100.10.2.0/24"},
				[]string{"2001:db8:10::/48", "2001:db8:11::/48"}))
			update("worse path, no export", 1, from(1, true, nil, []string{"100.10.1.0/24"}, nil))
			update("All-k block communities", 2, from(2, false,
				[]bgp.Community{bgp.MakeCommunity(0, asn16(0)), bgp.MakeCommunity(0, asn16(5))},
				[]string{"100.12.0.0/24"}, nil))
			update("whitelist communities", 3, from(3, false,
				[]bgp.Community{bgp.MakeCommunity(ixpASN, asn16(0)), bgp.MakeCommunity(ixpASN, asn16(10))},
				[]string{"100.13.0.0/24"}, []string{"2001:db8:13::/48"}))
			update("block all", 4, from(4, false,
				[]bgp.Community{bgp.MakeCommunity(0, ixpASN)}, []string{"100.14.0.0/24"}, nil))
			update("RTBH next-hop rewrite", 0, from(0, false,
				[]bgp.Community{bgp.CommunityBlackhole}, []string{"100.10.0.7/32", "100.10.0.8/32"}, nil))

			// Withdrawing the best path of 100.10.1.0/24 promotes peer 1's
			// pre-existing path (exported on its own, except with one
			// peer, where peer 1 is peer 0); the other prefixes coalesce
			// into one withdraw per family.
			wd := &bgp.Update{
				Withdrawn: []bgp.PathPrefix{{Prefix: pfx("100.10.1.0/24")}, {Prefix: pfx("100.10.2.0/24")}, {Prefix: pfx("100.10.0.7/32")}},
				Attrs: bgp.PathAttrs{MPUnreach: &bgp.MPUnreach{
					AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
					NLRI: []bgp.PathPrefix{{Prefix: pfx("2001:db8:11::/48")}},
				}},
			}
			update("withdraw with promotion", 0, wd)
			update("withdraw and announce in one UPDATE", 3, &bgp.Update{
				Withdrawn: []bgp.PathPrefix{{Prefix: pfx("100.13.0.0/24")}},
				Attrs:     from(3, false, nil, nil, nil).Attrs,
				NLRI:      []bgp.PathPrefix{{Prefix: pfx("100.13.1.0/24")}},
			})

			for _, peer := range []int{0, 3} {
				name := refPeer(peer % n).Name
				got, err := live.HandleWithdrawAll(name)
				if err != nil {
					t.Fatal(err)
				}
				check("session loss of "+name, got, refHandleWithdrawAll(ref, name))
			}
			if got, want := live.Table().Len(), ref.Table().Len(); got != want {
				t.Fatalf("table sizes diverge: %d vs %d", got, want)
			}
		})
	}
}

// TestAddPeersEquivalentToSequential pins AddPeers as exactly n AddPeer
// calls — same join order, path IDs and name order — and its
// all-or-nothing duplicate handling.
func TestAddPeersEquivalentToSequential(t *testing.T) {
	const n = 300
	cfgs := make([]PeerConfig, n)
	for i := range cfgs {
		cfgs[i] = refPeer(i)
	}
	seq, batch := New(Config{ASN: ixpASN}), New(Config{ASN: ixpASN})
	for _, c := range cfgs {
		if err := seq.AddPeer(c); err != nil {
			t.Fatal(err)
		}
	}
	// Two publications, so a batch on top of a non-empty registry is
	// covered too.
	if err := batch.AddPeers(cfgs[:7]...); err != nil {
		t.Fatal(err)
	}
	if err := batch.AddPeers(cfgs[7:]...); err != nil {
		t.Fatal(err)
	}
	a, b := seq.reg.Load(), batch.reg.Load()
	if !reflect.DeepEqual(a.peers, b.peers) || !reflect.DeepEqual(a.order, b.order) || !reflect.DeepEqual(a.sorted, b.sorted) {
		t.Fatal("AddPeers registry differs from sequential AddPeer")
	}
	for i, name := range b.order {
		if ps := b.peers[name]; int(ps.pathID) != i+1 || ps.cfg != cfgs[i] {
			t.Fatalf("order[%d] = %+v", i, ps)
		}
	}
	if len(b.sorted) != n || !sort.SliceIsSorted(b.sorted, func(i, j int) bool { return b.sorted[i].cfg.Name < b.sorted[j].cfg.Name }) {
		t.Fatal("registry's sorted peers are not all peers by name")
	}

	for _, dup := range [][]PeerConfig{
		{refPeer(n), refPeer(n + 1), refPeer(n)}, // inside the batch
		{refPeer(n), refPeer(3)},                 // against the registry
	} {
		if err := batch.AddPeers(dup...); err != ErrDuplicatePeer {
			t.Fatalf("AddPeers(%v): err = %v", dup, err)
		}
		if got := batch.reg.Load(); got != b {
			t.Fatal("a refused AddPeers published a registry")
		}
	}
}
