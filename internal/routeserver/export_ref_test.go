package routeserver

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
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
		added, tr := rs.table.AddWithBest(key, ps.cfg.ASN, u.Attrs.Clone())
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
				check("session loss of "+name, got.perPeer(), refHandleWithdrawAll(ref, name))
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

// refPerMember is the export builder's finish as it was when every
// message laid its exports out per member: a first pass counts what each
// registered peer, in name order, is owed, and one backing array is
// carved into the peers' batches. TestExportsMatchPerMemberFinish runs
// Exports' per-peer view and HandleUpdateBatch against it.
func refPerMember(x Exports) []PeerUpdates {
	owes := func(ps *peerState, e export) bool {
		if e.best == nil {
			return ps.cfg.Name != x.from
		}
		return x.rs.exportsTo(e.best, ps)
	}
	if len(x.exports) == 0 {
		return nil
	}
	peers, owed := 0, 0
	for _, ps := range x.reg.sorted {
		n := 0
		for _, e := range x.exports {
			if owes(ps, e) {
				n++
			}
		}
		if n > 0 {
			peers++
			owed += n
		}
	}
	if peers == 0 {
		return nil
	}
	out := make([]PeerUpdates, 0, peers)
	flat := make([]*bgp.Update, 0, owed)
	for _, ps := range x.reg.sorted {
		start := len(flat)
		for _, e := range x.exports {
			if owes(ps, e) {
				flat = append(flat, e.u)
			}
		}
		if end := len(flat); end > start {
			out = append(out, PeerUpdates{Peer: ps.cfg.Name, Updates: flat[start:end:end]})
		}
	}
	return out
}

// TestExportsMatchPerMemberFinish drives random UPDATE streams into two
// identically registered route servers, one through HandleUpdate and
// HandleWithdrawAll, the other through HandleUpdateBatch and
// HandleWithdrawAll laid out per member. For every registered peer,
// Exports.To must return exactly the reference's entry — nil for a peer
// owed nothing, otherwise the same *bgp.Update pointers in the same
// order — and HandleUpdateBatch must equal the reference laid out from
// the twin's export set. Each UPDATE appears once in the set's Len/Update
// view, and every UPDATE a peer is owed is one of them.
//
// Registries mix 2-byte ASNs with 4-byte ones, some sharing a 2-byte
// peer's low 16 bits; announcements carry the IXP policy communities
// (0:IXP, 0:peer, IXP:peer whitelists, IXP:666) in both families, peers
// announce the same prefixes with different path lengths so withdrawals
// promote pre-existing paths, and sessions are lost mid-stream.
func TestExportsMatchPerMemberFinish(t *testing.T) {
	var promoted, withdrawAlls, partial, fourByteOwed int
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 57))
		n := 2 + rng.IntN(30)
		cfgs := make([]PeerConfig, n)
		for i, j := range rng.Perm(n) {
			asn := uint32(1000 + j)
			if rng.IntN(3) == 0 {
				asn = 65536 + uint32(1000+rng.IntN(n)) // low 16 bits may name a 2-byte peer
			}
			cfgs[i] = PeerConfig{Name: fmt.Sprintf("m%d", j), ASN: asn}
		}
		live := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
		twin := New(Config{ASN: ixpASN, BlackholeNextHop: blackholeNH})
		for _, rs := range []*RouteServer{live, twin} {
			if err := rs.AddPeers(cfgs...); err != nil {
				t.Fatal(err)
			}
		}
		var v4, v6 []netip.Prefix
		for i := 0; i < 6; i++ {
			v4 = append(v4, netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(i), 0}), 24))
			v6 = append(v6, netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 5: byte(i)}), 48))
		}
		host := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, 0, 7}), 32)
		pick := func(pool []netip.Prefix) []bgp.PathPrefix {
			var out []bgp.PathPrefix
			for _, i := range rng.Perm(len(pool))[:rng.IntN(3)] {
				out = append(out, bgp.PathPrefix{Prefix: pool[i]})
			}
			return out
		}
		communities := func() []bgp.Community {
			var out []bgp.Community
			for k := rng.IntN(3); k > 0; k-- {
				other := uint16(cfgs[rng.IntN(n)].ASN)
				switch rng.IntN(4) {
				case 0:
					out = append(out, bgp.MakeCommunity(0, ixpASN))
				case 1:
					out = append(out, bgp.MakeCommunity(0, other))
				case 2:
					out = append(out, bgp.MakeCommunity(ixpASN, other))
				default:
					out = append(out, bgp.MakeCommunity(ixpASN, 666))
				}
			}
			return out
		}
		randUpdate := func(sender PeerConfig) *bgp.Update {
			path := []uint32{sender.ASN}
			for k := rng.IntN(3); k > 0; k-- {
				path = append(path, 64999)
			}
			u := &bgp.Update{Withdrawn: pick(v4), Attrs: bgp.PathAttrs{
				Origin:      bgp.OriginIGP,
				ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
				NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, 1}),
				Communities: communities(),
			}}
			if w := pick(v6); len(w) > 0 {
				u.Attrs.MPUnreach = &bgp.MPUnreach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NLRI: w}
			}
			u.NLRI = pick(v4)
			if rng.IntN(4) == 0 {
				// A host route passes import only as a blackholing signal.
				u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: host})
				u.Attrs.Communities = append(u.Attrs.Communities, bgp.CommunityBlackhole)
			}
			if a := pick(v6); len(a) > 0 {
				u.Attrs.MPReach = &bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
					NextHop: netip.MustParseAddr("2001:db8:ff::1"), NLRI: a}
			}
			return u
		}

		check := func(step string, x Exports, batch []PeerUpdates) {
			t.Helper()
			want := refPerMember(x)
			byPeer := make(map[string][]*bgp.Update, len(want))
			for _, b := range want {
				byPeer[b.Peer] = b.Updates
			}
			set := make(map[*bgp.Update]bool, x.Len())
			for i := 0; i < x.Len(); i++ {
				if set[x.Update(i)] {
					t.Fatalf("%s: UPDATE %d appears twice in the set", step, i)
				}
				set[x.Update(i)] = true
			}
			owedTo := 0
			for _, cfg := range cfgs {
				got := x.To(cfg.Name, nil)
				if w := byPeer[cfg.Name]; !slices.Equal(got, w) || (got == nil) != (w == nil) {
					t.Fatalf("%s: To(%s) = %v, reference %v", step, cfg.Name, got, w)
				}
				for _, u := range got {
					if !set[u] {
						t.Fatalf("%s: %s is owed an UPDATE outside the set", step, cfg.Name)
					}
				}
				if len(got) > 0 {
					owedTo++
					if cfg.ASN > math.MaxUint16 {
						fourByteOwed++
					}
				}
			}
			if owedTo > 0 && owedTo < n-1 {
				partial++
			}
			for _, e := range x.exports {
				if e.best != nil && e.best.Key.Peer != x.from {
					promoted++
				}
			}
			if !reflect.DeepEqual(batch, want) {
				t.Fatalf("%s: HandleUpdateBatch diverges from the reference:\n got  %+v\n want %+v", step, batch, want)
			}
			if g, w := sharing(batch), sharing(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: update sharing diverges:\n got  %v\n want %v", step, g, w)
			}
		}
		for step := 0; step < 300; step++ {
			sender := cfgs[rng.IntN(n)]
			name := fmt.Sprintf("seed %d step %d from %s", seed, step, sender.Name)
			if rng.IntN(25) == 0 {
				x, err := live.HandleWithdrawAll(sender.Name)
				if err != nil {
					t.Fatal(err)
				}
				tx, err := twin.HandleWithdrawAll(sender.Name)
				if err != nil {
					t.Fatal(err)
				}
				check(name+" (session loss)", x, tx.perPeer())
				withdrawAlls += x.Len()
				continue
			}
			u := randUpdate(sender)
			x, rejs, err := live.HandleUpdate(sender.Name, u)
			if err != nil || len(rejs) > 0 {
				t.Fatalf("%s: err %v, rejections %+v", name, err, rejs)
			}
			batch, _, err := twin.HandleUpdateBatch(sender.Name, u)
			if err != nil {
				t.Fatal(err)
			}
			check(name, x, batch)
		}
	}
	t.Logf("coverage: %d promoted-path exports, %d session-loss exports, %d sets owed to some peers only, %d owed to 4-byte peers",
		promoted, withdrawAlls, partial, fourByteOwed)
	if promoted < 50 || withdrawAlls < 20 || partial < 50 || fourByteOwed < 50 {
		t.Fatalf("coverage: %d promoted-path exports, %d session-loss exports, %d sets owed to some peers only, %d owed to 4-byte peers",
			promoted, withdrawAlls, partial, fourByteOwed)
	}
}
