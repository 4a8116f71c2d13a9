package flowmon

import "stellar/internal/netpkt"

// MapCollector is the reference implementation the equivalence tests
// pin Collector to: four map operations per record into the per-bin
// store, no sharding, not safe for concurrent use — the design the
// sharded pipeline replaced.
type MapCollector struct {
	st store
	// SampleEvery subsamples records (IPFIX samples 1-in-N packets in
	// production); 1 observes everything.
	SampleEvery int
	counter     int
}

// NewMapCollector returns an empty reference collector observing every
// record.
func NewMapCollector() *MapCollector {
	return &MapCollector{st: newStore(), SampleEvery: 1}
}

// Observe adds one record.
func (c *MapCollector) Observe(r Record) {
	c.counter++
	if c.SampleEvery > 1 && c.counter%c.SampleEvery != 0 {
		return
	}
	c.st.observe(&r)
}

// ObserveBatch adds a batch of records.
func (c *MapCollector) ObserveBatch(recs []Record) {
	for i := range recs {
		c.Observe(recs[i])
	}
}

// Bins returns the observed bin indices, sorted.
func (c *MapCollector) Bins() []int { return c.st.binsSorted() }

// TotalBytes returns the bytes observed in bin.
func (c *MapCollector) TotalBytes(bin int) float64 { return c.st.totalBytes(bin) }

// DstPortShares returns each destination port's share of the bin's bytes.
func (c *MapCollector) DstPortShares(bin int) map[uint16]float64 { return c.st.dstPortShares(bin) }

// SrcPortShares returns each UDP source port's share of the bin's bytes.
func (c *MapCollector) SrcPortShares(bin int) map[uint16]float64 { return c.st.srcPortShares(bin) }

// SrcPortBytes returns the bin's UDP bytes from one source port.
func (c *MapCollector) SrcPortBytes(bin int, port uint16) float64 {
	return c.st.srcPortBytes(bin, port)
}

// ProtoShares returns the protocol byte shares of the bin.
func (c *MapCollector) ProtoShares(bin int) map[netpkt.IPProto]float64 { return c.st.protoShares(bin) }

// PeerCount returns the number of distinct source members whose bytes
// in the bin exceed minBytes.
func (c *MapCollector) PeerCount(bin int, minBytes float64) int { return c.st.peerCount(bin, minBytes) }

// PeerCountFunc is PeerCount restricted to the source MACs keep accepts.
func (c *MapCollector) PeerCountFunc(bin int, minBytes float64, keep func(netpkt.MAC) bool) int {
	return c.st.peerCountFunc(bin, minBytes, keep)
}

// TopSrcPorts returns the k highest-volume UDP source ports across all
// bins plus the 65535 "others" sentinel.
func (c *MapCollector) TopSrcPorts(k int) []PortRank { return c.st.topSrcPorts(k) }

// Series returns the per-bin total bytes as (bins, values) slices.
func (c *MapCollector) Series() (bins []int, bytes []float64) { return c.st.series() }
