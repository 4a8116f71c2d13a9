package ixp

import (
	"fmt"
	"maps"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
)

// nullModel is the null-route state as a plain set per member,
// maintained here from the RTBH semantics alone: an announced
// blackhole reaches every other member registered at the time, and the
// honoring ones null-route it; a withdrawal reaches everyone.
type nullModel map[string]map[netip.Prefix]bool

// snapshotFilterTick is the null-route filter as a per-tick snapshot:
// every tick it copies model into a fresh map, then sums each port's
// offers in offer order while looking for null-routed ones, copying a
// port's slice only when one dies, and hands the rest to the fabric.
func snapshotFilterTick(x *IXP, model nullModel, offers fabric.TickOffers, dt float64) (map[string]engine.PortReport, error) {
	nulls := make(map[string][]netip.Prefix, len(model))
	for name, routes := range model {
		if len(routes) == 0 {
			continue
		}
		ps := make([]netip.Prefix, 0, len(routes))
		for p := range routes {
			ps = append(ps, p)
		}
		nulls[name] = ps
	}
	dies := func(o *fabric.Offer) bool {
		src, ok := memberByMAC(x, o.Flow.SrcMAC)
		if !ok {
			return false
		}
		for _, p := range nulls[src.Name] {
			if p.Contains(o.Flow.Dst) {
				return true
			}
		}
		return false
	}
	reports := make(map[string]engine.PortReport, len(offers))
	filtered := make(fabric.TickOffers, len(offers))
	for name, os := range offers {
		var rep engine.PortReport
		nulled := false
		for j := range os {
			o := &os[j]
			rep.OfferedBytes += o.Bytes
			if len(nulls) == 0 {
				continue
			}
			if dies(o) {
				rep.NulledBytes += o.Bytes
				nulled = true
			}
		}
		kept := os
		if nulled {
			kept = make([]fabric.Offer, 0, len(os))
			for j := range os {
				if !dies(&os[j]) {
					kept = append(kept, os[j])
				}
			}
		}
		reports[name] = rep
		filtered[name] = kept
	}
	st, err := x.Fabric.Tick(nil, filtered, dt, nil)
	if err != nil {
		return nil, err
	}
	for name, res := range st.PerPort {
		rep := reports[name]
		rep.Result = res
		reports[name] = rep
	}
	return reports, nil
}

// portReportBits lists every float of a report, for a bit-for-bit
// comparison.
func portReportBits(r engine.PortReport) [7]uint64 {
	return [7]uint64{
		math.Float64bits(r.OfferedBytes), math.Float64bits(r.NulledBytes),
		math.Float64bits(r.Result.PresentedBytes), math.Float64bits(r.Result.DeliveredBytes),
		math.Float64bits(r.Result.RuleDroppedBytes), math.Float64bits(r.Result.ShaperDroppedBytes),
		math.Float64bits(r.Result.CongestionDroppedBytes),
	}
}

// TestEgressTickMatchesSnapshotFilterUnderRTBHChurn drives a seeded run
// of RTBH announces, withdrawals, session losses and joins, with an
// egress tick after every step over offers from honoring, non-honoring,
// joined and unregistered senders. After each step NullRouted and
// NullRouteCount agree with the model, and every field of every port's
// report equals, bit for bit, the per-tick snapshot filter's. The run
// crosses between "no null route live" — where EgressTick skips the
// filter and takes OfferedBytes from the fabric — and "some live" at
// least 20 times.
func TestEgressTickMatchesSnapshotFilterUnderRTBHChurn(t *testing.T) {
	const nVictims, steps = 3, 400
	x, members := buildTestIXP(t, 16, 0.5, false)
	pool := fabric.NewPool(2)
	defer pool.Close()
	rng := stats.NewRand(29)

	current := append([]*member.Member(nil), members...) // registered, in join order
	model := make(nullModel)
	for _, m := range current {
		model[m.Name] = make(map[netip.Prefix]bool)
	}
	host := func(v int) netip.Prefix { return netip.PrefixFrom(victimAddr(members[v]), 32) }
	live := make([]bool, nVictims)     // victim v's blackhole is announced
	covering := make([]bool, nVictims) // victim v's /24 is announced
	dropHost := func(v int) {
		live[v] = false
		for _, routes := range model {
			delete(routes, host(v))
		}
	}
	anyLive := func() bool {
		for _, routes := range model {
			if len(routes) > 0 {
				return true
			}
		}
		return false
	}

	joined, crossings, fastTicks := 0, 0, 0
	for step := 0; step < steps; step++ {
		wasLive := anyLive()
		v := rng.Intn(nVictims)
		victim := members[v]
		var err error
		switch op := rng.Intn(10); {
		case op < 4 && !live[v]: // announce the blackhole
			if !covering[v] {
				if err = x.Announce(victim.Name, victim.Prefixes[0], nil, nil); err != nil {
					break
				}
				covering[v] = true
			}
			err = x.Announce(victim.Name, host(v), []bgp.Community{bgp.CommunityBlackhole}, nil)
			live[v] = true
			for _, m := range current {
				if m != victim && m.HonorsRTBH() {
					model[m.Name][host(v)] = true
				}
			}
		case op < 8 && live[v]: // withdraw it
			err = x.Withdraw(victim.Name, host(v))
			dropHost(v)
		case op == 8: // a session loss: the victim's, or any member's
			down := victim
			if rng.Intn(2) == 0 {
				down = current[rng.Intn(len(current))]
			}
			err = x.PeerDown(down.Name)
			for w := 0; w < nVictims; w++ {
				if members[w] == down {
					covering[w] = false
					if live[w] {
						dropHost(w)
					}
				}
			}
		case op == 9 && joined < 12: // a member joins; every other one honors
			m := lateMember(joined)
			m.AcceptsMoreSpecifics, m.ActsOnBlackhole = joined%2 == 0, joined%2 == 0
			joined++
			err = x.Join(m)
			current = append(current, m)
			model[m.Name] = make(map[netip.Prefix]bool)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if anyLive() != wasLive {
			crossings++
		}

		for w := 0; w < nVictims; w++ {
			want := 0
			for _, m := range current {
				routed := model[m.Name][host(w)]
				if routed {
					want++
				}
				if got := x.NullRouted(m.Name, host(w).Addr()); got != routed {
					t.Fatalf("step %d: NullRouted(%s, %s) = %v, want %v", step, m.Name, host(w), got, routed)
				}
			}
			if got := x.NullRouteCount(host(w).Addr()); got != want {
				t.Fatalf("step %d: NullRouteCount(%s) = %d, want %d", step, host(w), got, want)
			}
		}

		offers := make(fabric.TickOffers, nVictims)
		stranger := netpkt.MAC{0x02, 0xee, 0, 0, 0, byte(step)}
		for w := 0; w < nVictims; w++ {
			other := host(w).Addr().Next()
			var os []fabric.Offer
			for _, mac := range append(macsOf(current), stranger) {
				for _, dst := range []netip.Addr{host(w).Addr(), other} {
					flow := netpkt.FlowKey{SrcMAC: mac, Dst: dst, Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
					b := 1e7 * (1 + rng.Float64()) // congests the 1 Gbps victim port
					os = append(os, fabric.Offer{Flow: &flow, Bytes: b, Packets: b / 500})
				}
			}
			offers[members[w].Name] = os
		}
		want, err := snapshotFilterTick(x, model, offers, 1)
		if err != nil {
			t.Fatal(err)
		}
		var r fabric.Runner
		if step%2 == 1 {
			r = pool
		}
		got, err := x.EgressTick(r, offers, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !anyLive() {
			fastTicks++
		}
		x.nullMu.RLock()
		tableLive := len(x.nulls) > 0
		x.nullMu.RUnlock()
		if tableLive != anyLive() {
			t.Fatalf("step %d: null-route table live=%v, model live=%v", step, tableLive, anyLive())
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d port reports, want %d", step, len(got), len(want))
		}
		for name, w := range want {
			if g := got[name]; portReportBits(g) != portReportBits(w) {
				t.Fatalf("step %d port %s:\n got  %+v\n want %+v", step, name, g, w)
			}
		}
	}
	if crossings < 20 {
		t.Fatalf("the run crossed the no-null-route boundary %d times, want >= 20", crossings)
	}
	if fastTicks == 0 || fastTicks == steps {
		t.Fatalf("%d of %d ticks had no null route live: both regimes must run", fastTicks, steps)
	}
}

func macsOf(ms []*member.Member) []netpkt.MAC {
	out := make([]netpkt.MAC, len(ms))
	for i, m := range ms {
		out[i] = m.MAC
	}
	return out
}

// TestEgressTickAllocsIndependentOfMembers pins the null-route table's
// cost to what changes, not to the exchange's size: with no null route
// live, a warm EgressTick over the same offers allocates as many
// objects, and as many bytes, on a 6 000-member exchange as on a
// 60-member one.
func TestEgressTickAllocsIndependentOfMembers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so the egress scratch reallocates")
	}
	const runs = 50
	measure := func(n int) (objects, bytes uint64) {
		x, members := buildTestIXP(t, n, 0.3, true)
		victim := members[0]
		var offers []fabric.Offer
		for _, m := range members[1:40] {
			flow := netpkt.FlowKey{SrcMAC: m.MAC, Dst: victimAddr(victim), Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
			offers = append(offers, fabric.Offer{Flow: &flow, Bytes: 1e5, Packets: 100})
		}
		tick := fabric.TickOffers{victim.Name: offers}
		egress := func() {
			if _, err := x.EgressTick(nil, tick, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		// One P, so the warm tick leaves the egress scratch in the
		// sync.Pool slot the measured ticks take it from, and the build's
		// garbage collected, so no collection empties the pool meanwhile.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		egress() // warm the port's positions and the egress scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			egress()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	smallObjects, smallBytes := measure(60)
	largeObjects, largeBytes := measure(6000)
	if largeObjects != smallObjects || largeBytes != smallBytes {
		t.Fatalf("%d warm ticks: %d objects, %d bytes at 6000 members; %d objects, %d bytes at 60",
			runs, largeObjects, largeBytes, smallObjects, smallBytes)
	}
}

// TestNullRouteTableConcurrentChurn announces and withdraws blackholes
// while egress ticks and null-route queries read the table; meaningful
// under -race, where an edit the table's lock does not cover shows up
// as a race.
func TestNullRouteTableConcurrentChurn(t *testing.T) {
	x, members := buildTestIXP(t, 8, 1, false)
	victims := members[:3]
	offers := make(fabric.TickOffers, len(victims))
	for _, v := range victims {
		if err := x.Announce(v.Name, v.Prefixes[0], nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			flow := netpkt.FlowKey{SrcMAC: m.MAC, Dst: victimAddr(v), Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
			offers[v.Name] = append(offers[v.Name], fabric.Offer{Flow: &flow, Bytes: 1e4, Packets: 10})
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := x.EgressTick(nil, offers, 1, nil); err != nil {
				t.Error(err)
			}
			x.NullRouted(members[5].Name, victimAddr(victims[0]))
			x.NullRouteCount(victimAddr(victims[1]))
		}
	}()
	for i := 0; i < 200; i++ {
		v := victims[i%len(victims)]
		host := netip.PrefixFrom(victimAddr(v), 32)
		var err error
		if (i/len(victims))%2 == 0 {
			err = x.Announce(v.Name, host, []bgp.Community{bgp.CommunityBlackhole}, nil)
		} else {
			err = x.Withdraw(v.Name, host)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

// refApplyExports is the member walk applyExports ran before it checked
// a batch's UPDATEs first: every target member is looked up and every
// UPDATE it is owed is applied to nulls, whatever the batch holds.
func refApplyExports(x *IXP, nulls map[string][]netip.Prefix, exports []routeserver.PeerUpdates) {
	members := x.reg.Load().members
	for _, e := range exports {
		m, ok := members[e.Peer]
		if !ok {
			continue
		}
		routes := nulls[m.Name]
		changed := false
		withdraw := func(p netip.Prefix) {
			if i := slices.Index(routes, p); i >= 0 {
				routes, changed = slices.Delete(routes, i, i+1), true
			}
		}
		install := func(p netip.Prefix) {
			if !slices.Contains(routes, p) {
				routes, changed = append(routes, p), true
			}
		}
		for _, u := range e.Updates {
			for _, w := range u.Withdrawn {
				withdraw(w.Prefix)
			}
			if u.Attrs.MPUnreach != nil {
				for _, w := range u.Attrs.MPUnreach.NLRI {
					withdraw(w.Prefix)
				}
			}
			if !m.HonorsRTBH() {
				continue
			}
			if x.blackholes(u.Attrs.NextHop) {
				for _, a := range u.NLRI {
					install(a.Prefix)
				}
			}
			if mp := u.Attrs.MPReach; mp != nil && x.blackholes(mp.NextHop) {
				for _, a := range mp.NLRI {
					install(a.Prefix)
				}
			}
		}
		if !changed {
			continue
		}
		if len(routes) == 0 {
			delete(nulls, m.Name)
		} else {
			nulls[m.Name] = routes
		}
	}
}

// TestApplyExportsMatchesMemberWalk: over random export batches, the
// null-route table applyExports keeps stays identical to the one the
// unconditional member walk keeps. The batches mix RTBH announcements
// of both families, Advanced Blackholing and plain announcements, and
// withdrawals of both families with and without a null route live;
// they target honoring members, members that do not honor RTBH, and a
// name that is no member. As the route server does, every target of an
// UPDATE shares its pointer, and each target is owed a subsequence of
// the batch's UPDATEs in batch order.
func TestApplyExportsMatchesMemberWalk(t *testing.T) {
	x, members := buildTestIXP(t, 24, 0.5, false)
	rng := stats.NewRand(53)
	var v4, v6 []netip.Prefix
	for i := 0; i < 6; i++ {
		v4 = append(v4, netip.PrefixFrom(victimAddr(members[i]), 32))
		v6 = append(v6, netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i + 1)}), 128))
	}
	pick := func(pool []netip.Prefix) []bgp.PathPrefix {
		var out []bgp.PathPrefix
		for n := 1 + rng.Intn(3); n > 0; n-- {
			out = append(out, bgp.PathPrefix{Prefix: pool[rng.Intn(len(pool))]})
		}
		return out
	}
	mappedNH := netip.AddrFrom16(blackholeNH.As16())
	routerNH := netip.MustParseAddr("10.0.0.1")
	abSignal := bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, [6]byte{0, 2, 0, 123})
	const (
		rtbh4 = iota
		rtbh6
		abOnly
		plain
		withdraw4
		withdraw6
		kinds
	)
	randUpdate := func() (*bgp.Update, int) {
		kind := rng.Intn(kinds)
		u := &bgp.Update{}
		switch kind {
		case rtbh4:
			u.Attrs.NextHop, u.NLRI = blackholeNH, pick(v4)
		case rtbh6:
			u.Attrs.MPReach = &bgp.MPReach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NextHop: mappedNH, NLRI: pick(v6)}
		case abOnly:
			u.Attrs.NextHop, u.NLRI = routerNH, pick(v4)
			u.Attrs.ExtCommunities = []bgp.ExtCommunity{abSignal}
		case plain:
			u.Attrs.NextHop = routerNH
			u.NLRI = []bgp.PathPrefix{{Prefix: members[rng.Intn(len(members))].Prefixes[0]}}
		case withdraw4:
			u.Withdrawn = pick(v4)
		case withdraw6:
			u.Attrs.MPUnreach = &bgp.MPUnreach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NLRI: pick(v6)}
		}
		return u, kind
	}
	targets := []string{"AS1"} // no member of that name
	honoring, other := 0, 0
	for _, m := range members {
		targets = append(targets, m.Name)
		if m.HonorsRTBH() {
			honoring++
		} else {
			other++
		}
	}
	if honoring == 0 || other == 0 {
		t.Fatalf("population: %d honoring members, %d others", honoring, other)
	}

	ref := make(map[string][]netip.Prefix)
	var seen [kinds]int
	withdrawLive, withdrawEmpty, quiet := 0, 0, 0
	for step := 0; step < 3000; step++ {
		var batch []*bgp.Update
		batchKinds := make(map[int]bool)
		clearAll := rng.Intn(4) == 0
		if clearAll {
			// Withdraw everything from every target: the table goes empty.
			batch = []*bgp.Update{
				{Withdrawn: pathPrefixes(v4)},
				{Attrs: bgp.PathAttrs{MPUnreach: &bgp.MPUnreach{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast, NLRI: pathPrefixes(v6)}}},
			}
			batchKinds[withdraw4], batchKinds[withdraw6] = true, true
		} else {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				u, kind := randUpdate()
				batch = append(batch, u)
				batchKinds[kind] = true
			}
		}
		var exports []routeserver.PeerUpdates
		for _, name := range targets {
			if !clearAll && rng.Intn(3) == 0 {
				continue
			}
			var owed []*bgp.Update
			for _, u := range batch {
				if clearAll || rng.Intn(4) != 0 {
					owed = append(owed, u)
				}
			}
			if len(owed) > 0 {
				exports = append(exports, routeserver.PeerUpdates{Peer: name, Updates: owed})
			}
		}

		live := len(ref) > 0
		if batchKinds[withdraw4] || batchKinds[withdraw6] {
			if live {
				withdrawLive++
			} else {
				withdrawEmpty++
			}
		}
		if !batchKinds[rtbh4] && !batchKinds[rtbh6] && !(live && (batchKinds[withdraw4] || batchKinds[withdraw6])) {
			quiet++
		}
		for k := range batchKinds {
			seen[k]++
		}

		x.applyExports(len(batch), func(i int) *bgp.Update { return batch[i] },
			func(member string, dst []*bgp.Update) []*bgp.Update {
				for _, e := range exports {
					if e.Peer == member {
						return append(dst, e.Updates...)
					}
				}
				return dst
			})
		refApplyExports(x, ref, exports)
		x.nullMu.RLock()
		same := maps.EqualFunc(x.nulls, ref, slices.Equal[[]netip.Prefix])
		got := fmt.Sprint(x.nulls)
		x.nullMu.RUnlock()
		if !same {
			t.Fatalf("step %d: null routes\n got  %s\n want %v", step, got, ref)
		}
	}
	for k, n := range seen {
		if n < 100 {
			t.Fatalf("update kind %d in only %d batches", k, n)
		}
	}
	if withdrawLive < 100 || withdrawEmpty < 100 || quiet < 100 {
		t.Fatalf("coverage: %d withdrawals with a null route live, %d with none, %d batches that change nothing",
			withdrawLive, withdrawEmpty, quiet)
	}
}

func pathPrefixes(ps []netip.Prefix) []bgp.PathPrefix {
	out := make([]bgp.PathPrefix, len(ps))
	for i, p := range ps {
		out[i] = bgp.PathPrefix{Prefix: p}
	}
	return out
}
