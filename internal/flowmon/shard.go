package flowmon

import (
	"sync"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// ringBins is the number of in-flight time bins a shard holds before a
// newly observed bin rotates an older one into the long-term store. The
// simulation observes one bin per tick, so a small ring keeps the hot
// path inside the shard.
const ringBins = 4

// Shard is one worker's accumulator: a ring of in-flight bins backed by
// compact open-addressed counter tables. The steady-state observe path
// performs no allocation per record (tables and touched-lists grow
// geometrically and are reused after every flush); a batch takes the
// shard lock once.
type Shard struct {
	c     *Collector
	mu    sync.Mutex
	slots [ringBins]shardBin
}

// shardBin accumulates one time bin inside a shard.
type shardBin struct {
	used  bool
	bin   int
	total float64

	srcPort counterTable // UDP source port -> bytes
	dstPort counterTable // any-proto destination port -> bytes
	peers   counterTable // packed source MAC -> bytes
}

// ObserveFlow adds one flow observation. It reads key only during the
// call.
func (s *Shard) ObserveFlow(bin int, key *netpkt.FlowKey, bytes float64) {
	s.mu.Lock()
	s.observe(bin, key, bytes)
	s.mu.Unlock()
}

// ObserveDelivered adds one port's delivered flows of an egress tick —
// the batch a fabric.FlowVisitor receives — under one lock acquisition,
// in batch order. It reads each flow key in place and keeps nothing of
// the batch.
func (s *Shard) ObserveDelivered(bin int, delivered []fabric.Delivery) {
	s.mu.Lock()
	for i := range delivered {
		s.observe(bin, delivered[i].Offer.Flow, delivered[i].Bytes)
	}
	s.mu.Unlock()
}

// observe is the hot path; callers hold s.mu.
func (s *Shard) observe(bin int, key *netpkt.FlowKey, bytes float64) {
	b := &s.slots[uint(bin)%ringBins]
	if !b.used {
		b.used = true
		b.bin = bin
	} else if b.bin != bin {
		s.c.flushSlot(b) // ring rotation: lock order shard.mu -> c.mu
		b.used = true
		b.bin = bin
	}
	b.total += bytes
	b.dstPort.add(uint64(key.DstPort), bytes)
	if key.Proto == netpkt.ProtoUDP {
		b.srcPort.add(uint64(key.SrcPort), bytes)
	}
	b.peers.add(macKey(key.SrcMAC), bytes)
}

// reset clears the bin's counters while keeping every table's capacity,
// so the next bin in this slot observes without allocating.
func (b *shardBin) reset() {
	b.used = false
	b.total = 0
	b.srcPort.reset()
	b.dstPort.reset()
	b.peers.reset()
}

// counterTable is a compact open-addressed uint64 -> float64
// accumulator with linear probing. It grows geometrically (an
// allocation only when the load factor crosses 3/4) and is cleared in
// place on reset, so steady-state adds never allocate. Keys must fit in
// 63 bits: the top bit marks an occupied entry.
type counterTable struct {
	entries []counterEntry
	n       int
}

type counterEntry struct {
	tag uint64 // key | usedBit while occupied, 0 while empty
	val float64
}

const usedBit = 1 << 63

func (e *counterEntry) used() bool  { return e.tag != 0 }
func (e *counterEntry) key() uint64 { return e.tag &^ usedBit }

const minTableCap = 16

func (t *counterTable) add(key uint64, delta float64) {
	if t.n*4 >= len(t.entries)*3 {
		t.grow()
	}
	mask := uint64(len(t.entries) - 1)
	tag := key | usedBit
	i := mixU64(key) & mask
	for {
		e := &t.entries[i]
		if e.tag == 0 {
			e.tag = tag
			e.val = delta
			t.n++
			return
		}
		if e.tag == tag {
			e.val += delta
			return
		}
		i = (i + 1) & mask
	}
}

// get returns key's accumulated value, 0 when absent.
func (t *counterTable) get(key uint64) float64 {
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.entries) - 1)
	tag := key | usedBit
	for i := mixU64(key) & mask; ; i = (i + 1) & mask {
		switch t.entries[i].tag {
		case tag:
			return t.entries[i].val
		case 0:
			return 0
		}
	}
}

func (t *counterTable) grow() {
	newCap := minTableCap
	if len(t.entries) > 0 {
		newCap = len(t.entries) * 2
	}
	old := t.entries
	t.entries = make([]counterEntry, newCap)
	t.n = 0
	for i := range old {
		if old[i].used() {
			t.add(old[i].key(), old[i].val)
		}
	}
}

func (t *counterTable) reset() {
	clear(t.entries)
	t.n = 0
}

// mixU64 is the splitmix64 finalizer: a cheap avalanche so sequential
// port numbers and structured MAC keys spread across the table.
func mixU64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// macKey packs a MAC into its 48-bit integer form (lossless).
func macKey(m netpkt.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

func unpackMAC(k uint64) netpkt.MAC {
	return netpkt.MAC{byte(k >> 40), byte(k >> 32), byte(k >> 24),
		byte(k >> 16), byte(k >> 8), byte(k)}
}
