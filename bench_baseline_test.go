package stellar_test

// A frozen replica of the seed's route-server update path, kept as the
// benchmark baseline for BenchmarkRouteServerSingleLockBaseline: one
// global mutex over the whole pipeline, a single-lock RIB whose Best is
// a sort of every path on every query, per-prefix export generation with
// a sorted target list, and one (peer, update) pair per exported prefix.
// The live implementation (internal/routeserver) replaced this with a
// prefix-sharded RIB, cached best paths, lock-free import checks and
// batched per-peer exports; benchmarking against the replica records the
// speedup and guards against regressing back into it.

import (
	"net/netip"
	"sort"
	"sync"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/ixp"
	"stellar/internal/routeserver"
)

type seedPath struct {
	prefix netip.Prefix
	peer   string
	peerAS uint32
	attrs  bgp.PathAttrs
	seq    uint64
}

type seedPathKey struct {
	prefix netip.Prefix
	peer   string
}

// seedRouteServer is the seed's single-lock design, reduced to the parts
// the throughput benchmark exercises (no IRR policy, no subscribers).
type seedRouteServer struct {
	asn         uint32
	blackholeNH netip.Addr

	mu     sync.Mutex
	order  []string
	peers  map[string]uint32 // name -> ASN
	routes map[netip.Prefix]map[seedPathKey]*seedPath
	seq    uint64
}

func newSeedRouteServer(asn uint32, nh netip.Addr) *seedRouteServer {
	return &seedRouteServer{
		asn: asn, blackholeNH: nh,
		peers:  make(map[string]uint32),
		routes: make(map[netip.Prefix]map[seedPathKey]*seedPath),
	}
}

func (rs *seedRouteServer) addPeer(name string, asn uint32) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.peers[name] = asn
	rs.order = append(rs.order, name)
}

func (rs *seedRouteServer) isBlackhole(attrs *bgp.PathAttrs) bool {
	return attrs.HasCommunity(bgp.CommunityBlackhole) ||
		attrs.HasCommunity(bgp.MakeCommunity(uint16(rs.asn), 666))
}

// best re-sorts every path of the prefix, exactly like the seed table's
// Lookup-based Best.
func (rs *seedRouteServer) best(prefix netip.Prefix) *seedPath {
	m := rs.routes[prefix]
	out := make([]*seedPath, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return seedBetter(out[i], out[j]) })
	return out[0]
}

func seedBetter(a, b *seedPath) bool {
	if la, lb := a.attrs.PathLen(), b.attrs.PathLen(); la != lb {
		return la < lb
	}
	if a.attrs.Origin != b.attrs.Origin {
		return a.attrs.Origin < b.attrs.Origin
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.peer < b.peer
}

// seedPeerUpdate is the seed's export shape: one UPDATE per (peer,
// prefix) pair.
type seedPeerUpdate struct {
	Peer   string
	Update *bgp.Update
}

func (rs *seedRouteServer) handleUpdate(peer string, u *bgp.Update) ([]seedPeerUpdate, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	peerAS, ok := rs.peers[peer]
	if !ok {
		return nil, routeserver.ErrUnknownPeer
	}
	var exports []seedPeerUpdate
	for _, pp := range u.AllWithdrawn() {
		key := seedPathKey{prefix: pp.Prefix, peer: peer}
		m := rs.routes[pp.Prefix]
		if m == nil {
			continue
		}
		oldBest := rs.best(pp.Prefix)
		if _, ok := m[key]; !ok {
			continue
		}
		delete(m, key)
		if len(m) == 0 {
			delete(rs.routes, pp.Prefix)
		}
		exports = append(exports, rs.exportAfterChange(pp.Prefix, oldBest)...)
	}
	for _, pp := range u.AllAnnounced() {
		// The seed's import checks at benchmark shape: length gate plus
		// blackhole-community exception (no IRR policy configured).
		if pp.Prefix.Bits() > 24 && !rs.isBlackhole(&u.Attrs) {
			continue
		}
		oldBest := rs.best(pp.Prefix)
		rs.seq++
		m := rs.routes[pp.Prefix]
		if m == nil {
			m = make(map[seedPathKey]*seedPath)
			rs.routes[pp.Prefix] = m
		}
		m[seedPathKey{prefix: pp.Prefix, peer: peer}] = &seedPath{
			prefix: pp.Prefix, peer: peer, peerAS: peerAS,
			attrs: u.Attrs.Clone(), seq: rs.seq,
		}
		exports = append(exports, rs.exportAfterChange(pp.Prefix, oldBest)...)
	}
	return exports, nil
}

func (rs *seedRouteServer) exportAfterChange(prefix netip.Prefix, oldBest *seedPath) []seedPeerUpdate {
	best := rs.best(prefix)
	if best == nil {
		var out []seedPeerUpdate
		u := &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: prefix}}}
		for _, name := range rs.order {
			if oldBest != nil && name == oldBest.peer {
				continue
			}
			out = append(out, seedPeerUpdate{Peer: name, Update: u})
		}
		return out
	}
	if oldBest != nil && oldBest == best {
		return nil
	}
	// Per-prefix target list with the seed's alphabetical sort.
	targets := make([]string, 0, len(rs.order))
	for _, name := range rs.order {
		if name != best.peer {
			targets = append(targets, name)
		}
	}
	sort.Strings(targets)
	attrs := best.attrs.Clone()
	if rs.isBlackhole(&attrs) && rs.blackholeNH.IsValid() {
		attrs.NextHop = rs.blackholeNH
		attrs.AddCommunity(bgp.CommunityNoExport)
	}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.PathPrefix{{Prefix: prefix}}}
	out := make([]seedPeerUpdate, 0, len(targets))
	for _, name := range targets {
		out = append(out, seedPeerUpdate{Peer: name, Update: u})
	}
	return out
}

// ---------------------------------------------------------------------
// Scenario-pipeline baseline: a frozen replica of the pre-sharding
// monitoring pipeline (the PR-2-era ixp.Scenario.Run), kept for
// BenchmarkScenarioPipelineBaseline. One victim per serial pass — N
// victims mean N sequential single-victim loops — with fresh offer
// slices every tick, the per-tick DeliveredByFlow map materialized on
// every port tick, every delivered flow pushed one record at a time
// through the retained map-based collector, and the per-tick active-peer
// count recomputed from the delivered-flow map. The live engine
// (ixp.Scenario.RunAll) replaced this with one parallel multi-victim
// fabric pass whose egress workers stream records into per-worker
// collector shards.

// seedScenarioVictim is one victim of the baseline scenario loop.
type seedScenarioVictim struct {
	port    string
	sources []ixp.Source
}

// seedScenarioRun replays the retained single-victim pipeline for every
// victim in sequence and returns the summed delivered bytes (a checksum
// the benchmark compares against the live engine).
func seedScenarioRun(x *ixp.IXP, victims []seedScenarioVictim, ticks int, dt float64) (float64, error) {
	const peerMinBps = 1e3
	var deliveredSum float64
	for _, v := range victims {
		mon := flowmon.NewMapCollector()
		samples := make([]ixp.Sample, 0, ticks)
		for tick := 0; tick < ticks; tick++ {
			var offers []fabric.Offer
			for _, src := range v.sources {
				offers = append(offers, src.Offers(tick, dt)...)
			}
			reports, err := x.Tick(fabric.TickOffers{v.port: offers}, dt)
			if err != nil {
				return 0, err
			}
			rep := reports[v.port]
			for flow, bytes := range rep.Result.DeliveredByFlow {
				mon.Observe(flowmon.Record{Bin: tick, Key: flow, Bytes: bytes})
			}
			samples = append(samples, ixp.Sample{
				Tick:         tick,
				Time:         float64(tick) * dt,
				OfferedBps:   rep.OfferedBytes * 8 / dt,
				DeliveredBps: rep.Result.DeliveredBytes * 8 / dt,
				ActivePeers:  x.ActivePeers(rep.Result, peerMinBps*dt/8),
			})
			deliveredSum += rep.Result.DeliveredBytes
		}
		_ = samples
		_ = mon
	}
	return deliveredSum, nil
}
