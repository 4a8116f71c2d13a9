// Package flowmon is the IXP's flow-monitoring pipeline: an IPFIX-style
// collector that aggregates per-tick flow observations into time-binned
// counters, from which the evaluation derives per-port traffic shares
// (Figure 2c), UDP source-port histograms across blackholing events
// (Figure 3a) and peer counts (Figures 3c and 10c).
//
// A Collector has one Shard accumulator: a bounded ring of in-flight
// time bins, merged into the long-term store when a bin rotates out or
// an accessor reads. A bin's port roll-ups are compact open-addressed
// counter tables; its per-peer bytes are an array indexed by a dense
// peer id the shard gives each source MAC the first time it sees it.
// The shard resolves a record's MAC first through the peer id the
// record at the same position of its previous bin resolved to,
// confirmed by one MAC compare, then through its MAC -> id table: a
// port delivers the same flows in the same order tick after tick, so
// the warm path hashes no peer. The steady-state observe path performs
// no allocation per record and takes one lock per batch.
//
// The long-term store runs in flat memory. Per-peer byte counters — the
// one per-bin state that grows with the number of senders — are kept
// for a window of the 16 newest merged bins only, in a ring of reused
// id-indexed arrays; there PeerCountFunc answers "who is sending now"
// with a walk over the bin's seen ids. Every bin keeps a compact
// roll-up of its total, UDP source-port and destination-port bytes,
// from which every other accessor answers exactly, at any bin, for as
// long as the collector runs. The package's tests keep the
// map-per-record design it replaced as a reference and pin the two to
// identical accessor results on randomized streams.
package flowmon

import (
	"sort"
	"sync"
	"sync/atomic"

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

// Collector aggregates records on its shard and merges them into a
// long-term per-bin store — peers for the newest bins, a roll-up for
// every bin — when bins rotate out of the shard's ring or when an
// accessor reads. It is safe for concurrent use: any number of
// goroutines may observe on its Shard while others read the accessors.
type Collector struct {
	sh Shard

	// horizon bounds accessor-triggered merges: shard bins above it stay
	// in flight (see SetMergeHorizon). Defaults to unbounded.
	horizon atomic.Int64

	mu sync.Mutex // guards st; always acquired after the shard lock
	st store
}

// NewCollectorShards returns an empty collector. A collector has one
// shard, which every worker index shares (see Shard), so n is ignored.
func NewCollectorShards(n int) *Collector {
	c := &Collector{}
	c.sh = Shard{c: c, ids: make(map[uint64]int32)}
	c.horizon.Store(int64(^uint64(0) >> 1)) // unbounded
	return c
}

// Shard returns the collector's accumulator, whatever the worker index
// i: every worker observes into the one shard, under its lock.
func (c *Collector) Shard(i int) *Shard { return &c.sh }

// SetMergeHorizon bounds accessor-triggered merges to bins <= bin:
// shard bins above the horizon stay in flight instead of being drained
// mid-accumulation. Readers that overlap writers — the simulation
// engine's fold side reads tick T's bins while the next tick's egress
// still streams into bin T+1 — set the horizon to the tick they read,
// which keeps every bin's counters the sum of one uninterrupted shard
// accumulation (bit-identical to a serial run) instead of a sum of
// partial flushes, whose float addition order would differ. Ring
// rotation on the observe path is unaffected: it only flushes bins the
// writer has moved past, and a bin it flushes above the horizon keeps
// its peers until the horizon has passed it (see PeerCountFunc). The
// horizon may only move forward while observers run; reset it to a
// large value (or leave it unset) for the read-after-write usage every
// other caller has.
func (c *Collector) SetMergeHorizon(bin int) { c.horizon.Store(int64(bin)) }

// merge drains the shard's in-flight bins at or below the merge horizon
// into the long-term store. Lock order is always shard.mu before c.mu —
// the same order the shard's own ring-rotation flush uses.
func (c *Collector) merge() {
	horizon := c.horizon.Load()
	s := &c.sh
	s.mu.Lock()
	for i := range s.slots {
		if s.slots[i].used && int64(s.slots[i].bin) <= horizon {
			s.flush(&s.slots[i])
		}
	}
	s.mu.Unlock()
}

// Bins returns the observed bin indices, sorted.
func (c *Collector) Bins() []int {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.binsSorted()
}

// TotalBytes returns the bytes observed in bin.
func (c *Collector) TotalBytes(bin int) float64 {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.totalBytes(bin)
}

// DstPortShares returns each destination port's share of the bin's
// bytes — the Figure 2(c) view ("traffic share IXP member [%]").
func (c *Collector) DstPortShares(bin int) map[uint16]float64 {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.shares(bin, kindDst)
}

// SrcPortShares returns each UDP source port's share of the bin's bytes
// — the Figure 3(a) view.
func (c *Collector) SrcPortShares(bin int) map[uint16]float64 {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.shares(bin, kindSrc)
}

// SrcPortBytes returns the bin's UDP bytes from one source port — the
// per-class accounting of the Section 5.2 lab validation (drop vs shape
// queue classes are keyed by UDP source port).
func (c *Collector) SrcPortBytes(bin int, port uint16) float64 {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.srcPortBytes(bin, port)
}

// PeerCountFunc returns the number of distinct source MACs keep accepts
// whose bytes in the bin exceed minBytes — the "#peers" series of
// Figures 3(c)/10(c), where the scenario engine keeps only MACs
// registered to IXP members. Peers are kept for a window of the 16
// newest merged bins — counted back from the merge horizon instead
// while it lags the newest bin, so a bin written ahead of a lagging
// reader keeps its peers until read. For a bin outside the window
// PeerCountFunc returns 0, the same as for an unobserved bin; the bin's
// other accessors still answer. keep must not call back into the
// collector.
func (c *Collector) PeerCountFunc(bin int, minBytes float64, keep func(netpkt.MAC) bool) int {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.peerCount(bin, minBytes, keep, c.horizon.Load())
}

// TopSrcPorts returns the k highest-volume UDP source ports across all
// bins, plus the residual share under the sentinel port 65535 when
// "others" is non-zero. The ranking is deterministic regardless of map
// iteration order: equal-volume ports tie-break toward the lower port.
// A k below 0 counts as 0.
func (c *Collector) TopSrcPorts(k int) []PortRank {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.topSrcPorts(k)
}
