package flowmon

import (
	"sort"

	"stellar/internal/netpkt"
)

// MapCollector is the reference implementation the equivalence tests
// pin Collector to: four map operations per record into a map per bin
// that keeps every bin's peers forever, no sharding, not safe for
// concurrent use — the design the sharded, two-tier pipeline replaced.
type MapCollector struct {
	bins map[int]*binAgg
}

// binAgg accumulates one bin's counters.
type binAgg struct {
	bySrcPort map[uint16]float64 // UDP source port -> bytes
	byDstPort map[uint16]float64 // any-proto destination port -> bytes
	byProto   map[netpkt.IPProto]float64
	peers     map[netpkt.MAC]float64 // source member -> bytes
	total     float64
}

// NewMapCollector returns an empty reference collector observing every
// record.
func NewMapCollector() *MapCollector {
	return &MapCollector{bins: make(map[int]*binAgg)}
}

// Observe adds one record.
func (c *MapCollector) Observe(r Record) {
	b := c.bins[r.Bin]
	if b == nil {
		b = &binAgg{
			bySrcPort: make(map[uint16]float64),
			byDstPort: make(map[uint16]float64),
			byProto:   make(map[netpkt.IPProto]float64),
			peers:     make(map[netpkt.MAC]float64),
		}
		c.bins[r.Bin] = b
	}
	b.total += r.Bytes
	b.byProto[r.Key.Proto] += r.Bytes
	b.byDstPort[r.Key.DstPort] += r.Bytes
	if r.Key.Proto == netpkt.ProtoUDP {
		b.bySrcPort[r.Key.SrcPort] += r.Bytes
	}
	b.peers[r.Key.SrcMAC] += r.Bytes
}

// ObserveBatch adds a batch of records.
func (c *MapCollector) ObserveBatch(recs []Record) {
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

// ProtoShares returns the protocol byte shares of the bin.
func (c *MapCollector) ProtoShares(bin int) map[netpkt.IPProto]float64 {
	b := c.bins[bin]
	out := make(map[netpkt.IPProto]float64)
	if b == nil || b.total == 0 {
		return out
	}
	for proto, bytes := range b.byProto {
		out[proto] = bytes / b.total
	}
	return out
}

// PeerCount returns the number of distinct source members whose bytes
// in the bin exceed minBytes — at every bin, unlike Collector.
func (c *MapCollector) PeerCount(bin int, minBytes float64) int {
	return c.PeerCountFunc(bin, minBytes, func(netpkt.MAC) bool { return true })
}

// PeerCountFunc is PeerCount restricted to the source MACs keep accepts.
func (c *MapCollector) PeerCountFunc(bin int, minBytes float64, keep func(netpkt.MAC) bool) int {
	b := c.bins[bin]
	if b == nil {
		return 0
	}
	n := 0
	for mac, bytes := range b.peers {
		if bytes > minBytes && keep(mac) {
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

// Series returns the per-bin total bytes as (bins, values) slices.
func (c *MapCollector) Series() (bins []int, bytes []float64) {
	bins = c.Bins()
	bytes = make([]float64, len(bins))
	for i, b := range bins {
		bytes[i] = c.bins[b].total
	}
	return bins, bytes
}
