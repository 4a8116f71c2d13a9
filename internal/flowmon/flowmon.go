// Package flowmon is the IXP's flow-monitoring pipeline: an IPFIX-style
// collector that aggregates per-tick flow observations into time-binned
// counters, from which the evaluation derives per-port traffic shares
// (Figure 2c), UDP source-port histograms across blackholing events
// (Figure 3a) and peer counts (Figures 3c and 10c).
//
// A Collector counts each record straight into its time bin, under its
// one lock, taken once per batch. The newest bins live in a hot ring of
// reusable slots: a bin's port roll-ups are an array indexed by a dense
// roll-up id the collector gives each (kind, port) the first time it
// counts it, and its per-peer bytes an array indexed by a dense peer id
// it gives each source MAC. A record resolves first through what the
// record at the same position of the previous bin resolved to — its
// peer id and its port pair (destination port, and UDP source port),
// confirmed by one MAC compare and one port compare — and only then
// through the collector's tables: a port delivers the same flows in the
// same order tick after tick, so the warm path hashes nothing. The
// steady-state observe path performs no allocation per record.
//
// Per-peer byte counters — the one per-bin state that grows with the
// number of senders — are kept for a window of the 16 newest bins only;
// there PeerCount answers "who is sending now" with a walk over the
// bin's seen ids. A bin leaving the window is retired into a cold tier
// that keeps a compact roll-up of its total, UDP source-port and
// destination-port bytes, from which every other accessor answers
// exactly, at any bin, for as long as the collector runs. Whether a
// peer belongs to the member set counted is asked of the set once per
// peer id and kept until the collector is handed a different set, so a
// warm count asks nothing. The package's tests keep the map-per-record
// design it replaced as a reference and pin the two to identical
// accessor results on randomized streams.
package flowmon

import (
	"math"
	"sort"
	"sync"

	"stellar/internal/netpkt"
)

// PortRank is one entry of a top-ports report.
type PortRank struct {
	Port  uint16
	Bytes float64
	Share float64
}

// rankPorts ranks per-port bytes for TopSrcPorts: the k largest, plus
// the residual of total under the sentinel port 65535 when it is not
// zero.
func rankPorts(agg map[uint16]float64, total float64, k int) []PortRank {
	ranks := make([]PortRank, 0, len(agg))
	for port, bytes := range agg {
		ranks = append(ranks, PortRank{Port: port, Bytes: bytes})
	}
	// Ports are unique keys, so (bytes desc, port asc) is a total order:
	// one stable sort yields the same ranking on every call regardless
	// of map iteration order.
	sort.SliceStable(ranks, func(i, j int) bool {
		if ranks[i].Bytes != ranks[j].Bytes {
			return ranks[i].Bytes > ranks[j].Bytes
		}
		return ranks[i].Port < ranks[j].Port
	})
	if k = max(k, 0); k < len(ranks) {
		ranks = ranks[:k]
	}
	var top float64
	for i := range ranks {
		if total > 0 {
			ranks[i].Share = ranks[i].Bytes / total
		}
		top += ranks[i].Bytes
	}
	if rest := total - top; rest > 1e-9 {
		share := 0.0
		if total > 0 {
			share = rest / total
		}
		ranks = append(ranks, PortRank{Port: 65535, Bytes: rest, Share: share})
	}
	return ranks
}

// Collector aggregates records into per-bin counters — peers for the
// newest bins, a roll-up for every bin — as they are observed on its
// Shard. It is safe for concurrent use: any number of goroutines may
// observe on its Shard while others read the accessors, all under its
// one lock.
type Collector struct {
	mu sync.Mutex // guards st
	st store
	sh Shard
}

// NewCollectorShards returns an empty collector. A collector has one
// write handle, which every worker index shares (see Shard), so n is
// ignored.
func NewCollectorShards(n int) *Collector {
	c := &Collector{st: store{
		ids:     make(map[uint64]int32),
		rolls:   make(map[uint32]int32),
		pairIDs: make(map[uint64]uint8),
		horizon: math.MaxInt,
	}}
	c.sh.c = c
	return c
}

// Shard returns the collector's write handle, whatever the worker index
// i: every worker observes through the one handle, under the
// collector's lock.
func (c *Collector) Shard(i int) *Shard { return &c.sh }

// SetMergeHorizon tells the collector that its reader has reached bin:
// a bin at or above the horizon keeps its peer counters until the
// horizon reaches it, however far the writer runs ahead (see
// PeerCount). Readers that overlap writers — the simulation engine's
// fold side reads tick T's peers while the next tick's egress already
// streams into bin T+1 — set the horizon to the tick they read. The
// horizon has no say in float order: records are counted straight into
// their bin, so a bin's sums are its records' in arrival order whenever
// it is read. Moving the horizon also retires every bin below the peer
// window into the roll-up tier, on the reader's goroutine, so the
// writer finds the next bin's slot already free. Leave the horizon
// unset (or reset it to a large value) for the read-after-write usage
// every other caller has.
func (c *Collector) SetMergeHorizon(bin int) {
	c.mu.Lock()
	c.st.horizon = bin
	c.st.retire()
	c.mu.Unlock()
}

// Bins returns the observed bin indices, sorted.
func (c *Collector) Bins() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.binsSorted()
}

// TotalBytes returns the bytes observed in bin.
func (c *Collector) TotalBytes(bin int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.totalBytes(bin)
}

// DstPortShares returns each destination port's share of the bin's
// bytes — the Figure 2(c) view ("traffic share IXP member [%]").
func (c *Collector) DstPortShares(bin int) map[uint16]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.shares(bin, kindDst)
}

// SrcPortShares returns each UDP source port's share of the bin's bytes
// — the Figure 3(a) view.
func (c *Collector) SrcPortShares(bin int) map[uint16]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.shares(bin, kindSrc)
}

// SrcPortBytes returns the bin's UDP bytes from one source port — the
// per-class accounting of the Section 5.2 lab validation (drop vs shape
// queue classes are keyed by UDP source port).
func (c *Collector) SrcPortBytes(bin int, port uint16) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.srcPortBytes(bin, port)
}

// Members is a set of source MACs that PeerCount restricts its count
// to. A value must be comparable — in practice a pointer — and must
// answer the same for the same MAC for as long as it lives: a changed
// set is a new value. A collector asks Has about a peer once and keeps
// the answer until it is handed a different value; it holds the value
// it asked, so the address of a set still in use is never reused for
// another. Has must not call back into the collector.
type Members interface {
	Has(mac netpkt.MAC) bool
}

// PeerCount returns the number of distinct source MACs in m whose bytes
// in the bin exceed minBytes — the "#peers" series of Figures
// 3(c)/10(c), where the scenario engine counts only MACs registered to
// IXP members. A nil m counts every source. Peers are kept for a window
// of the 16 newest observed bins, stretched back to the merge horizon
// while it lags further, so a bin written ahead of a lagging reader
// keeps its peers until read. For a bin outside the window PeerCount
// returns 0, the same as for an unobserved bin; the bin's other
// accessors still answer.
func (c *Collector) PeerCount(bin int, minBytes float64, m Members) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.peerCount(bin, minBytes, m)
}

// PeerCountFunc is PeerCount with the set given as a predicate. Each
// call is a new set, so keep is asked about every counted peer.
func (c *Collector) PeerCountFunc(bin int, minBytes float64, keep func(netpkt.MAC) bool) int {
	return c.PeerCount(bin, minBytes, &funcSet{keep})
}

// funcSet is a predicate as a Members value; its pointer is its
// identity.
type funcSet struct{ keep func(netpkt.MAC) bool }

func (s *funcSet) Has(mac netpkt.MAC) bool { return s.keep(mac) }

// TopSrcPorts returns the k highest-volume UDP source ports across all
// bins, plus the residual share under the sentinel port 65535 when
// "others" is non-zero. The ranking is deterministic regardless of map
// iteration order: equal-volume ports tie-break toward the lower port.
// A k below 0 counts as 0.
func (c *Collector) TopSrcPorts(k int) []PortRank {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.topSrcPorts(k)
}
