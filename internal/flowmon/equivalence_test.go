package flowmon

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// randRecords draws a mixed workload: UDP/TCP/ICMP over v4 and v6,
// ports from a small pool (so keys collide and accumulate), several
// source MACs, bins in a window wider than the shard ring (forcing
// ring rotation), and occasional zero-byte records (which must still
// materialize their counter entries, as the map baseline does).
func randRecords(rng *rand.Rand, n, bins int) []record {
	protos := []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP, netpkt.ProtoICMP}
	ports := []uint16{0, 19, 53, 80, 123, 389, 443, 11211, 40000, 65535}
	recs := make([]record, n)
	for i := range recs {
		var src, dst netip.Addr
		if rng.Intn(2) == 0 {
			src = netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(8))})
			dst = netip.AddrFrom4([4]byte{100, 10, 10, byte(rng.Intn(4))})
		} else {
			src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(rng.Intn(8))})
			dst = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 15: byte(rng.Intn(4))})
		}
		bytes := float64(rng.Intn(1500)) * 100
		if rng.Intn(20) == 0 {
			bytes = 0
		}
		recs[i] = record{
			Bin: rng.Intn(bins),
			Key: netpkt.FlowKey{
				SrcMAC:  netpkt.MAC{0x02, 0x10, 0, 0, 0, byte(rng.Intn(16))},
				Src:     src,
				Dst:     dst,
				Proto:   protos[rng.Intn(len(protos))],
				SrcPort: ports[rng.Intn(len(ports))],
				DstPort: ports[rng.Intn(len(ports))],
			},
			Bytes: bytes,
		}
	}
	return recs
}

// collectorView is the accessor surface Collector and MapCollector
// share.
type collectorView interface {
	Bins() []int
	TotalBytes(bin int) float64
	DstPortShares(bin int) map[uint16]float64
	SrcPortShares(bin int) map[uint16]float64
	SrcPortBytes(bin int, port uint16) float64
	PeerCount(bin int, minBytes float64, m Members) int
	TopSrcPorts(k int) []PortRank
}

// compareCollectors checks every accessor of the sharded collector
// against a reference: the map baseline, or a collector fed serially.
// tol is the relative tolerance for float comparisons (0 demands exact
// equality; shard merges re-associate float additions, so multi-flush
// paths need a tiny tolerance). Peers are counted under anyMAC and
// evenMAC in turn, so the collector's verdicts change sets between
// reads.
func compareCollectors(t *testing.T, want collectorView, got *Collector, tol float64) {
	t.Helper()
	compareAccessors(t, want, got, tol, math.MinInt, anyMAC, evenMAC)
}

// compareAccessors is compareCollectors with peers counted under each
// of sets in turn, at every threshold, and the per-bin accessors read
// only at the bins from on (plus two absent bins).
func compareAccessors(t *testing.T, want collectorView, got *Collector, tol float64, from int, sets ...Members) {
	t.Helper()
	near := func(a, b float64) bool {
		if a == b {
			return true
		}
		scale := math.Max(math.Abs(a), math.Abs(b))
		return scale > 0 && math.Abs(a-b) <= tol*scale
	}
	wantBins, gotBins := want.Bins(), got.Bins()
	if fmt.Sprint(wantBins) != fmt.Sprint(gotBins) {
		t.Fatalf("Bins: got %v, want %v", gotBins, wantBins)
	}
	_, wantSeries := series(want)
	_, gotSeries := series(got)
	for i := range wantSeries {
		if !near(wantSeries[i], gotSeries[i]) {
			t.Fatalf("Series[%d]: got %v, want %v", i, gotSeries[i], wantSeries[i])
		}
	}
	for _, bin := range append(wantBins, -1, 1<<20) { // plus absent bins
		if bin < from && bin != -1 {
			continue
		}
		if !near(want.TotalBytes(bin), got.TotalBytes(bin)) {
			t.Fatalf("TotalBytes(%d): got %v, want %v", bin, got.TotalBytes(bin), want.TotalBytes(bin))
		}
		comparePortMap(t, fmt.Sprintf("DstPortShares(%d)", bin), want.DstPortShares(bin), got.DstPortShares(bin), near)
		comparePortMap(t, fmt.Sprintf("SrcPortShares(%d)", bin), want.SrcPortShares(bin), got.SrcPortShares(bin), near)
		for _, port := range []uint16{0, 53, 123, 65535} {
			if w, g := want.SrcPortBytes(bin, port), got.SrcPortBytes(bin, port); !near(w, g) {
				t.Fatalf("SrcPortBytes(%d, %d): got %v, want %v", bin, port, g, w)
			}
		}
		// Peers are kept for the newest peerWindow bins only; older bins
		// count 0, as documented.
		inWindow := len(wantBins) > 0 && bin > wantBins[len(wantBins)-1]-peerWindow
		for _, min := range []float64{0, 100, 1e5} {
			for i, set := range sets {
				w, g := want.PeerCount(bin, min, set), got.PeerCount(bin, min, set)
				if !inWindow {
					w = 0
				}
				if w != g {
					t.Fatalf("PeerCount(%d, %v) under set %d: got %d, want %d (in window: %v)", bin, min, i, g, w, inWindow)
				}
			}
		}
	}
	for _, k := range []int{1, 3, 100} {
		wantTop, gotTop := want.TopSrcPorts(k), got.TopSrcPorts(k)
		if len(wantTop) != len(gotTop) {
			t.Fatalf("TopSrcPorts(%d): got %+v, want %+v", k, gotTop, wantTop)
		}
		for i := range wantTop {
			if wantTop[i].Port != gotTop[i].Port ||
				!near(wantTop[i].Bytes, gotTop[i].Bytes) || !near(wantTop[i].Share, gotTop[i].Share) {
				t.Fatalf("TopSrcPorts(%d)[%d]: got %+v, want %+v", k, i, gotTop[i], wantTop[i])
			}
		}
	}
}

func comparePortMap(t *testing.T, what string, want, got map[uint16]float64, near func(a, b float64) bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d entries, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok || !near(v, g) {
			t.Fatalf("%s[%d]: got %v (present=%v), want %v", what, k, g, ok, v)
		}
	}
}

// TestCollectorEquivalenceSerial pins the sharded collector to the map
// baseline over a single observation stream.
func TestCollectorEquivalenceSerial(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		recs := randRecords(rng, 3000, 24) // 24 bins >> ring size: rotation exercised
		oldC := NewMapCollector()
		newC := NewCollectorShards(1)
		for _, r := range recs {
			oldC.Observe(r)
			observe(newC, r)
		}
		// Serial streams share association order except across ring
		// flushes; a tiny relative tolerance absorbs the float
		// re-association.
		compareCollectors(t, oldC, newC, 1e-12)
	}
}

// TestCollectorEquivalenceSingleBinExact: with every record in one bin
// the shard flushes exactly once, so the sharded collector's sums are
// bit-identical to the baseline's.
func TestCollectorEquivalenceSingleBinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := randRecords(rng, 2000, 1)
	oldC := NewMapCollector()
	newC := NewCollectorShards(1)
	for _, r := range recs {
		oldC.Observe(r)
		observe(newC, r)
	}
	compareCollectors(t, oldC, newC, 0)
}

// TestCollectorEquivalenceBatchedShards spreads batches across worker
// indices, which share the collector's one shard, and checks the merged
// aggregates still match the baseline.
func TestCollectorEquivalenceBatchedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randRecords(rng, 4000, 16)
	oldC := NewMapCollector()
	oldC.ObserveAll(recs)
	newC := NewCollectorShards(1)
	for i := 0; i < len(recs); i += 97 {
		end := i + 97
		if end > len(recs) {
			end = len(recs)
		}
		observeFlows(newC.Shard(i/97), recs[i:end])
	}
	compareCollectors(t, oldC, newC, 1e-9)
}

// TestCollectorEquivalenceOutOfOrderBeyondWindow streams bins mostly in
// order, as the engine does, but sends a tenth of the records late by up
// to three peer windows: they land in bins already compacted out of the
// hot tier, whose roll-ups must still come out equal to the baseline's
// at every bin (with new keys as well as known ones), while peers are
// compared only within the window.
func TestCollectorEquivalenceOutOfOrderBeyondWindow(t *testing.T) {
	const bins = 4 * peerWindow
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		recs := randRecords(rng, 6000, bins)
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Bin < recs[j].Bin })
		for i := range recs {
			if rng.Intn(10) == 0 {
				j := min(len(recs)-1, i+rng.Intn(len(recs)*3/4))
				recs[i], recs[j] = recs[j], recs[i]
			}
		}
		if spread := lateSpread(recs); spread <= peerWindow {
			t.Fatalf("trial %d: late records reach back only %d bins, want > %d", trial, spread, peerWindow)
		}
		want := NewMapCollector()
		got := NewCollectorShards(1)
		for i := 0; i < len(recs); i += 50 {
			batch := recs[i:min(i+50, len(recs))]
			want.ObserveAll(batch)
			observeFlows(got.Shard(i/50), batch)
		}
		compareCollectors(t, want, got, 1e-9)
	}
}

// lateSpread is how far behind the newest bin seen so far the latest
// record of a stream arrives.
func lateSpread(recs []record) int {
	newest, spread := recs[0].Bin, 0
	for _, r := range recs {
		newest = max(newest, r.Bin)
		spread = max(spread, newest-r.Bin)
	}
	return spread
}

// TestShardObserveFlowMatchesObserve pins the fabric-facing ObserveFlow
// entry point to the reference collector's per-record Observe, with
// bins interleaved so the shard ring rotates.
func TestShardObserveFlowMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randRecords(rng, 500, 2*ringBins)
	ref := NewMapCollector()
	c := NewCollectorShards(1)
	for i, r := range recs {
		ref.Observe(r)
		c.Shard(1).ObserveFlow(r.Bin, &recs[i].Key, r.Bytes)
	}
	compareCollectors(t, ref, c, 1e-9)
}

// TestShardObserveDeliveredMatchesObserveFlow pins the engine's batch
// entry point to one ObserveFlow per delivery: a port's delivered flows
// observed as one batch per bin, under one lock, fold into the same
// counters, bit for bit.
func TestShardObserveDeliveredMatchesObserveFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	recs := randRecords(rng, 2000, 2*ringBins)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Bin < recs[j].Bin })
	perFlow, batched := NewCollectorShards(1), NewCollectorShards(1)
	var batch []fabric.Delivery
	offers := make([]fabric.Offer, len(recs))
	for i, r := range recs {
		perFlow.Shard(1).ObserveFlow(r.Bin, &recs[i].Key, r.Bytes)
		offers[i] = fabric.Offer{Flow: &recs[i].Key}
		batch = append(batch, fabric.Delivery{Offer: &offers[i], Bytes: r.Bytes})
		if i+1 == len(recs) || recs[i+1].Bin != r.Bin {
			batched.Shard(1).ObserveDelivered(r.Bin, batch)
			batch = batch[:0]
		}
	}
	view := func(c *Collector) string {
		bins, totals := series(c)
		out := fmt.Sprint(bins, totals, c.TopSrcPorts(5))
		for _, b := range bins {
			out += fmt.Sprint(c.PeerCount(b, 0, anyMAC), c.DstPortShares(b))
		}
		return out
	}
	if got, want := view(batched), view(perFlow); got != want {
		t.Fatalf("batched observation diverged:\n%s\nper flow:\n%s", got, want)
	}
}

// TestObserveSteadyStateZeroAllocs pins the acceptance bar: after
// warmup, the observe hot path allocates nothing per record.
func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	rng := rand.New(rand.NewSource(3))
	warm := randRecords(rng, 4096, 2)
	observeFlows(sh, warm) // grow tables and touched-lists once
	i := 0
	if allocs := testing.AllocsPerRun(5000, func() {
		r := &warm[i%len(warm)]
		sh.ObserveFlow(r.Bin, &r.Key, r.Bytes)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveFlow allocates %v per record", allocs)
	}
}
