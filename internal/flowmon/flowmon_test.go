package flowmon

import (
	"fmt"
	"math"
	"net/netip"
	"testing"

	"stellar/internal/netpkt"
)

var (
	macA = netpkt.MustParseMAC("02:00:00:00:00:0a")
	macB = netpkt.MustParseMAC("02:00:00:00:00:0b")
	ip1  = netip.MustParseAddr("198.51.100.1")
	dst  = netip.MustParseAddr("100.10.10.10")
)

func rec(bin int, mac netpkt.MAC, proto netpkt.IPProto, srcPort, dstPort uint16, bytes float64) record {
	return record{
		Bin: bin,
		Key: netpkt.FlowKey{SrcMAC: mac, Src: ip1, Dst: dst, Proto: proto,
			SrcPort: srcPort, DstPort: dstPort},
		Bytes: bytes,
	}
}

// observe adds one record on shard 0.
func observe(c *Collector, r record) { c.Shard(0).ObserveFlow(r.Bin, &r.Key, r.Bytes) }

// anyMAC and evenMAC are two member sets: every source MAC, and the
// MACs whose last byte is even.
var (
	anyMAC  Members = &funcSet{func(netpkt.MAC) bool { return true }}
	evenMAC Members = &funcSet{func(m netpkt.MAC) bool { return m[5]%2 == 0 }}
)

// series returns the per-bin total bytes as (bins, values) aligned
// slices.
func series(c interface {
	Bins() []int
	TotalBytes(bin int) float64
}) (bins []int, bytes []float64) {
	bins = c.Bins()
	bytes = make([]float64, len(bins))
	for i, b := range bins {
		bytes[i] = c.TotalBytes(b)
	}
	return bins, bytes
}

func TestSharesAndTotals(t *testing.T) {
	c := NewCollectorShards(1)
	observe(c, rec(0, macA, netpkt.ProtoUDP, 123, 443, 600))
	observe(c, rec(0, macB, netpkt.ProtoTCP, 50000, 443, 400))

	if got := c.TotalBytes(0); got != 1000 {
		t.Fatalf("TotalBytes: %v", got)
	}
	ps := c.SrcPortShares(0)
	if math.Abs(ps[123]-0.6) > 1e-12 {
		t.Fatalf("udp src 123 share: %v", ps[123])
	}
	if _, ok := ps[50000]; ok {
		t.Fatal("TCP flow leaked into UDP src-port shares")
	}
	dp := c.DstPortShares(0)
	if math.Abs(dp[443]-1.0) > 1e-12 {
		t.Fatalf("dst 443 share: %v", dp[443])
	}
}

func TestEmptyBin(t *testing.T) {
	c := NewCollectorShards(1)
	if c.TotalBytes(9) != 0 || len(c.SrcPortShares(9)) != 0 ||
		len(c.DstPortShares(9)) != 0 || c.PeerCount(9, 0, anyMAC) != 0 {
		t.Fatal("empty bin not empty")
	}
}

func TestPeerCount(t *testing.T) {
	c := NewCollectorShards(1)
	observe(c, rec(0, macA, netpkt.ProtoUDP, 123, 443, 1000))
	observe(c, rec(0, macB, netpkt.ProtoUDP, 123, 443, 5))
	if got := c.PeerCount(0, 0, anyMAC); got != 2 {
		t.Fatalf("PeerCount(0): %d", got)
	}
	// Threshold excludes the 5-byte peer.
	if got := c.PeerCount(0, 10, anyMAC); got != 1 {
		t.Fatalf("PeerCount(10): %d", got)
	}
}

func TestBinsAndSeries(t *testing.T) {
	c := NewCollectorShards(1)
	observe(c, rec(3, macA, netpkt.ProtoUDP, 1, 1, 30))
	observe(c, rec(1, macA, netpkt.ProtoUDP, 1, 1, 10))
	observe(c, rec(1, macB, netpkt.ProtoUDP, 1, 1, 5))
	bins := c.Bins()
	if len(bins) != 2 || bins[0] != 1 || bins[1] != 3 {
		t.Fatalf("Bins: %v", bins)
	}
	b, v := series(c)
	if len(b) != 2 || v[0] != 15 || v[1] != 30 {
		t.Fatalf("Series: %v %v", b, v)
	}
}

func TestTopSrcPorts(t *testing.T) {
	c := NewCollectorShards(1)
	observe(c, rec(0, macA, netpkt.ProtoUDP, 0, 1, 500))
	observe(c, rec(0, macA, netpkt.ProtoUDP, 123, 1, 300))
	observe(c, rec(0, macA, netpkt.ProtoUDP, 53, 1, 100))
	observe(c, rec(1, macA, netpkt.ProtoTCP, 443, 1, 100)) // TCP: not a UDP src port

	top := c.TopSrcPorts(2)
	// 2 ports + "others" sentinel (port 53 UDP bytes + implicit gap from
	// TCP bytes counted in totals).
	if len(top) != 3 {
		t.Fatalf("TopSrcPorts: %+v", top)
	}
	if top[0].Port != 0 || top[1].Port != 123 {
		t.Fatalf("order: %+v", top)
	}
	if top[0].Share <= top[1].Share {
		t.Fatal("shares not ordered")
	}
	if top[2].Port != 65535 {
		t.Fatalf("others sentinel: %+v", top[2])
	}
	var sum float64
	for _, r := range top {
		sum += r.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum: %v", sum)
	}
}

func TestTopSrcPortsTieBreak(t *testing.T) {
	c := NewCollectorShards(1)
	observe(c, rec(0, macA, netpkt.ProtoUDP, 200, 1, 100))
	observe(c, rec(0, macA, netpkt.ProtoUDP, 100, 1, 100))
	top := c.TopSrcPorts(2)
	if top[0].Port != 100 || top[1].Port != 200 {
		t.Fatalf("tie break: %+v", top)
	}
}

func TestTopSrcPortsManyWayTieIsDeterministic(t *testing.T) {
	// A wide tie exercises the stable sort across map iteration orders:
	// every port carries identical volume, so the ranking must come out
	// in ascending port order on every call.
	c := NewCollectorShards(1)
	ports := []uint16{11211, 19, 389, 0, 123, 53, 7, 161}
	for _, p := range ports {
		observe(c, rec(0, macA, netpkt.ProtoUDP, p, 1, 100))
	}
	want := []uint16{0, 7, 19, 53, 123, 161, 389, 11211}
	for trial := 0; trial < 20; trial++ {
		top := c.TopSrcPorts(len(ports))
		if len(top) != len(want) {
			t.Fatalf("trial %d: %+v", trial, top)
		}
		for i, p := range want {
			if top[i].Port != p {
				t.Fatalf("trial %d: rank %d = port %d, want %d (%+v)", trial, i, top[i].Port, p, top)
			}
		}
	}
}

// TestTopSrcPortsNegativeK: a negative k names no port, as k == 0
// does; the report is only the residual under port 65535, on the
// collector and on the reference alike.
func TestTopSrcPortsNegativeK(t *testing.T) {
	c, ref := NewCollectorShards(1), NewMapCollector()
	for _, r := range []record{
		rec(0, macA, netpkt.ProtoUDP, 123, 443, 600),
		rec(0, macB, netpkt.ProtoUDP, 53, 443, 400),
	} {
		observe(c, r)
		ref.Observe(r)
	}
	want := []PortRank{{Port: 65535, Bytes: 1000, Share: 1}}
	for _, k := range []int{-1, -7, math.MinInt, 0} {
		for name, top := range map[string][]PortRank{"Collector": c.TopSrcPorts(k), "MapCollector": ref.TopSrcPorts(k)} {
			if fmt.Sprint(top) != fmt.Sprint(want) {
				t.Fatalf("%s.TopSrcPorts(%d) = %+v, want %+v", name, k, top, want)
			}
		}
	}
}

// TestShardAnyIndex: every worker index, the extremes whose negation
// overflows included, maps to the collector's one write handle.
func TestShardAnyIndex(t *testing.T) {
	c := NewCollectorShards(1)
	for _, i := range []int{math.MinInt, -1, 0, 1, math.MaxInt} {
		if sh := c.Shard(i); sh == nil || sh != c.Shard(0) {
			t.Fatalf("Shard(%d) is not the collector's write handle", i)
		}
	}
}

func TestAccumulationAcrossObserve(t *testing.T) {
	c := NewCollectorShards(1)
	for i := 0; i < 5; i++ {
		observe(c, rec(0, macA, netpkt.ProtoUDP, 123, 443, 100))
	}
	if got := c.TotalBytes(0); got != 500 {
		t.Fatalf("accumulated: %v", got)
	}
	if got := c.SrcPortShares(0)[123]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("share: %v", got)
	}
}

// BenchmarkObserve measures the steady-state observe path: the bin
// advances once per simulated tick (1000 records), as it does in the
// scenario pipeline. The collector must report 0 allocs/op.
func BenchmarkObserve(b *testing.B) {
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	r := rec(0, macA, netpkt.ProtoUDP, 123, 443, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.ObserveFlow(i/1000, &r.Key, r.Bytes)
	}
}

// BenchmarkObserveMapBaseline is the same workload on the retained
// map-per-record baseline.
func BenchmarkObserveMapBaseline(b *testing.B) {
	c := NewMapCollector()
	r := rec(0, macA, netpkt.ProtoUDP, 123, 443, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Bin = i / 1000
		c.Observe(r)
	}
}

// BenchmarkObserveManyKeys measures ingestion of a mixed-flow tick: 256
// distinct keys per bin, streamed one flow at a time.
func BenchmarkObserveManyKeys(b *testing.B) {
	c := NewCollectorShards(1)
	recs := make([]record, 256)
	for i := range recs {
		mac := macA
		mac[5] = byte(i)
		recs[i] = rec(0, mac, netpkt.ProtoUDP, uint16(1000+i%32), 443, 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j].Bin = i / 4
		}
		observeFlows(c.Shard(0), recs)
	}
}
