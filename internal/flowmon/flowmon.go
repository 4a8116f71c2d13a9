// Package flowmon is the IXP's flow-monitoring pipeline: an IPFIX-style
// collector that aggregates per-tick flow observations into time-binned
// counters, from which the evaluation derives per-port traffic shares
// (Figure 2c), UDP source-port histograms across blackholing events
// (Figure 3a), protocol mixes (Section 2.3) and peer counts (Figures 3c
// and 10c).
//
// Collector is built from per-worker Shard accumulators on compact
// open-addressed counter tables and a bounded ring of in-flight time
// bins, merged into the long-term store when a bin rotates out or an
// accessor reads. The steady-state observe path performs no allocation
// per record and takes no lock per record (one lock per batch), so the
// fabric's parallel egress workers stream delivered flows straight into
// their own shards.
//
// The long-term store runs in flat memory. Per-peer byte counters — the
// one per-bin state that grows with the number of senders — are kept
// for a window of the 16 newest merged bins only, in a ring of reused
// tables; there PeerCount answers "who is sending now". Every bin keeps
// a compact roll-up of its total, UDP source-port, destination-port and
// protocol bytes, from which every other accessor answers exactly, at
// any bin, for as long as the collector runs. The package's tests keep
// the map-per-record design it replaced as a reference and pin the two
// to identical accessor results on randomized streams.
package flowmon

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"stellar/internal/netpkt"
)

// Record is one flow observation: key, byte and packet counts within a
// time bin.
type Record struct {
	Bin     int
	Key     netpkt.FlowKey
	Bytes   float64
	Packets float64
}

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
	if k < len(ranks) {
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

// Collector aggregates records on per-worker shards and merges them
// into a long-term per-bin store — peers for the newest bins, a roll-up
// for every bin — when bins rotate out of the shard rings or when an
// accessor reads. It is safe for concurrent use:
// any number of goroutines may call Observe/ObserveBatch (or write to
// distinct Shards) while others read the accessors.
type Collector struct {
	shards []*Shard
	rr     atomic.Uint32 // round-robin batch placement

	// horizon bounds accessor-triggered merges: shard bins above it stay
	// in flight (see SetMergeHorizon). Defaults to unbounded.
	horizon atomic.Int64

	mu sync.Mutex // guards st; always acquired after a shard lock
	st store
}

// NewCollector returns an empty collector with one shard per
// GOMAXPROCS worker.
func NewCollector() *Collector { return NewCollectorShards(runtime.GOMAXPROCS(0)) }

// NewCollectorShards returns an empty collector with n shards (n < 1 is
// treated as 1).
func NewCollectorShards(n int) *Collector {
	if n < 1 {
		n = 1
	}
	c := &Collector{}
	c.horizon.Store(int64(^uint64(0) >> 1)) // unbounded
	c.shards = make([]*Shard, n)
	for i := range c.shards {
		c.shards[i] = &Shard{c: c}
	}
	return c
}

// Shards returns the number of shards.
func (c *Collector) Shards() int { return len(c.shards) }

// Shard returns worker i's accumulator; i wraps modulo the shard count
// (as an unsigned value), so any worker index is valid.
func (c *Collector) Shard(i int) *Shard {
	return c.shards[uint(i)%uint(len(c.shards))]
}

// Observe adds one record on shard 0.
func (c *Collector) Observe(r Record) { c.shards[0].Observe(r) }

// ObserveBatch adds a batch of records on one shard (chosen round-robin
// across calls), taking one lock per batch rather than per record. It
// is safe to call from any number of goroutines.
func (c *Collector) ObserveBatch(recs []Record) {
	c.shards[int(c.rr.Add(1)-1)%len(c.shards)].ObserveBatch(recs)
}

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
// its peers until the horizon has passed it (see PeerCount). The
// horizon may only move forward while observers run; reset it to a
// large value (or leave it unset) for the read-after-write usage every
// other caller has.
func (c *Collector) SetMergeHorizon(bin int) { c.horizon.Store(int64(bin)) }

// merge drains every shard's in-flight bins at or below the merge
// horizon into the long-term store. Lock order is always shard.mu
// before c.mu — the same order the shards' own ring-rotation flush
// uses.
func (c *Collector) merge() {
	horizon := c.horizon.Load()
	for _, s := range c.shards {
		s.mu.Lock()
		for i := range s.slots {
			if s.slots[i].used && int64(s.slots[i].bin) <= horizon {
				c.flushSlot(&s.slots[i])
			}
		}
		s.mu.Unlock()
	}
}

// flushSlot folds one shard bin into the long-term store and resets it.
// Callers hold the owning shard's lock.
func (c *Collector) flushSlot(b *shardBin) {
	c.mu.Lock()
	c.st.addFrom(b, c.horizon.Load())
	c.mu.Unlock()
	b.reset()
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

// ProtoShares returns the protocol byte shares of the bin.
func (c *Collector) ProtoShares(bin int) map[netpkt.IPProto]float64 {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.protoShares(bin)
}

// PeerCount returns the number of distinct source members whose bytes in
// the bin exceed minBytes — the "#peers" series of Figures 3(c)/10(c).
// Peers are kept for a window of the 16 newest merged bins — counted
// back from the merge horizon instead while it lags the newest bin, so
// a bin written ahead of a lagging reader keeps its peers until read.
// For a bin outside the window PeerCount returns 0, the same as for an
// unobserved bin; the bin's other accessors still answer.
func (c *Collector) PeerCount(bin int, minBytes float64) int {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.peerCount(bin, minBytes, nil, c.horizon.Load())
}

// PeerCountFunc is PeerCount restricted to the source MACs keep accepts
// — e.g. the scenario engine counts only MACs registered to IXP members,
// matching the pre-streaming ActivePeers semantics. It reads the same
// window as PeerCount and returns 0 outside it. keep must not call back
// into the collector.
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
func (c *Collector) TopSrcPorts(k int) []PortRank {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.topSrcPorts(k)
}

// Series returns the per-bin total bytes as (bins, values) aligned
// slices — the traffic time series of Figures 3(c) and 10(c).
func (c *Collector) Series() (bins []int, bytes []float64) {
	c.merge()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.series()
}
