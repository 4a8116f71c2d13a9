package flowmon

import (
	"sort"

	"stellar/internal/netpkt"
)

// record is one flow observation of the tests' workloads: key and
// byte count within a time bin.
type record struct {
	Bin   int
	Key   netpkt.FlowKey
	Bytes float64
}

// observeFlows streams recs into shard sh one flow at a time, as the
// engine's flow visitors do.
func observeFlows(sh *Shard, recs []record) {
	for i := range recs {
		sh.ObserveFlow(recs[i].Bin, &recs[i].Key, recs[i].Bytes)
	}
}

// MapCollector is the reference implementation the equivalence tests
// pin Collector to: four map operations per record into a map per bin
// that keeps every bin's peers forever, no sharding, not safe for
// concurrent use — the design the sharded, two-tier pipeline replaced.
type MapCollector struct {
	bins map[int]*binAgg
}

// binAgg accumulates one bin's counters.
type binAgg struct {
	bySrcPort map[uint16]float64     // UDP source port -> bytes
	byDstPort map[uint16]float64     // any-proto destination port -> bytes
	peers     map[netpkt.MAC]float64 // source member -> bytes
	total     float64
}

// NewMapCollector returns an empty reference collector observing every
// record.
func NewMapCollector() *MapCollector {
	return &MapCollector{bins: make(map[int]*binAgg)}
}

// Observe adds one record.
func (c *MapCollector) Observe(r record) {
	b := c.bins[r.Bin]
	if b == nil {
		b = &binAgg{
			bySrcPort: make(map[uint16]float64),
			byDstPort: make(map[uint16]float64),
			peers:     make(map[netpkt.MAC]float64),
		}
		c.bins[r.Bin] = b
	}
	b.total += r.Bytes
	b.byDstPort[r.Key.DstPort] += r.Bytes
	if r.Key.Proto == netpkt.ProtoUDP {
		b.bySrcPort[r.Key.SrcPort] += r.Bytes
	}
	b.peers[r.Key.SrcMAC] += r.Bytes
}

// ObserveAll adds records in order.
func (c *MapCollector) ObserveAll(recs []record) {
	for i := range recs {
		c.Observe(recs[i])
	}
}

// Bins returns the observed bin indices, sorted.
func (c *MapCollector) Bins() []int {
	out := make([]int, 0, len(c.bins))
	for b := range c.bins {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// TotalBytes returns the bytes observed in bin.
func (c *MapCollector) TotalBytes(bin int) float64 {
	if b := c.bins[bin]; b != nil {
		return b.total
	}
	return 0
}

func (c *MapCollector) shares(bin int, bytesBy func(*binAgg) map[uint16]float64) map[uint16]float64 {
	b := c.bins[bin]
	out := make(map[uint16]float64)
	if b == nil || b.total == 0 {
		return out
	}
	for port, bytes := range bytesBy(b) {
		out[port] = bytes / b.total
	}
	return out
}

// DstPortShares returns each destination port's share of the bin's bytes.
func (c *MapCollector) DstPortShares(bin int) map[uint16]float64 {
	return c.shares(bin, func(b *binAgg) map[uint16]float64 { return b.byDstPort })
}

// SrcPortShares returns each UDP source port's share of the bin's bytes.
func (c *MapCollector) SrcPortShares(bin int) map[uint16]float64 {
	return c.shares(bin, func(b *binAgg) map[uint16]float64 { return b.bySrcPort })
}

// SrcPortBytes returns the bin's UDP bytes from one source port.
func (c *MapCollector) SrcPortBytes(bin int, port uint16) float64 {
	if b := c.bins[bin]; b != nil {
		return b.bySrcPort[port]
	}
	return 0
}

// PeerCount returns the number of distinct source MACs in m (every one
// for a nil m) whose bytes in the bin exceed minBytes — at every bin,
// unlike Collector. It asks m about every counted MAC on every call.
func (c *MapCollector) PeerCount(bin int, minBytes float64, m Members) int {
	b := c.bins[bin]
	if b == nil {
		return 0
	}
	n := 0
	for mac, bytes := range b.peers {
		if bytes > minBytes && (m == nil || m.Has(mac)) {
			n++
		}
	}
	return n
}

// TopSrcPorts returns the k highest-volume UDP source ports across all
// bins plus the 65535 "others" sentinel.
func (c *MapCollector) TopSrcPorts(k int) []PortRank {
	agg := make(map[uint16]float64)
	var total float64
	for _, bin := range c.Bins() {
		b := c.bins[bin]
		for port, bytes := range b.bySrcPort {
			agg[port] += bytes
		}
		total += b.total
	}
	return rankPorts(agg, total, k)
}
