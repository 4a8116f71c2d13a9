package flowmon

import (
	"math/bits"
	"sync"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// ringBins is the number of in-flight time bins a shard holds before a
// newly observed bin rotates an older one into the long-term store. The
// simulation observes one bin per tick, so a small ring keeps the hot
// path inside the shard.
const ringBins = 4

// Shard is a collector's accumulator: a ring of in-flight bins, the
// dense peer ids of the source MACs the collector has seen, and a
// positional cache of the peer id each record of the previous bin
// resolved to. The steady-state observe path performs no allocation per
// record (tables and arrays grow geometrically and are reused after
// every flush); a batch takes the shard lock once.
type Shard struct {
	c     *Collector
	mu    sync.Mutex
	slots [ringBins]shardBin

	// ids numbers the packed source MACs densely, in the order the
	// shard first sees them; macs is its inverse, indexed by id.
	ids  map[uint64]int32
	macs []netpkt.MAC
	// pos[i] is the peer id the record at position i of the previous
	// bin resolved to, -1 while none has. Positions count the records
	// the shard observes into one bin, from 0, and restart when a
	// record arrives for another bin than the record before it (posBin);
	// posNext is the next record's position. A port delivers the same
	// flows in the same order tick after tick, so a position whose MAC
	// still matches macs[pos[i]] skips the table lookup.
	pos     []int32
	posBin  int
	posNext int
}

// shardBin accumulates one time bin inside a shard.
type shardBin struct {
	used  bool
	bin   int
	total float64

	srcPort counterTable // UDP source port -> bytes
	dstPort counterTable // any-proto destination port -> bytes
	peers   peerBytes    // peer id -> bytes
}

// ObserveFlow adds one flow observation. It reads key only during the
// call.
func (s *Shard) ObserveFlow(bin int, key *netpkt.FlowKey, bytes float64) {
	s.mu.Lock()
	b := &s.slots[uint(bin)%ringBins]
	if !b.used || b.bin != bin {
		s.rotate(b, bin)
	}
	s.add(b, s.cursor(bin, 1), key, bytes)
	s.mu.Unlock()
}

// ObserveDelivered adds one port's delivered flows of an egress tick —
// the batch a fabric.FlowVisitor receives — under one lock acquisition,
// in batch order. It reads each flow key in place and keeps nothing of
// the batch but the peer id each position resolved to.
func (s *Shard) ObserveDelivered(bin int, delivered []fabric.Delivery) {
	if len(delivered) == 0 {
		return
	}
	s.mu.Lock()
	b := &s.slots[uint(bin)%ringBins]
	if !b.used || b.bin != bin {
		s.rotate(b, bin)
	}
	base := s.cursor(bin, len(delivered))
	for i := range delivered {
		s.add(b, base+i, delivered[i].Offer.Flow, delivered[i].Bytes)
	}
	s.mu.Unlock()
}

// rotate hands ring slot b to bin, flushing the older bin it held into
// the store first. Callers hold s.mu.
func (s *Shard) rotate(b *shardBin, bin int) {
	if b.used {
		s.flush(b) // ring rotation: lock order shard.mu -> c.mu
	}
	b.used, b.bin = true, bin
}

// add counts the record at position i of its bin into b; ObserveFlow
// and ObserveDelivered share it. Callers hold s.mu.
func (s *Shard) add(b *shardBin, i int, key *netpkt.FlowKey, bytes float64) {
	id := s.pos[i]
	if id < 0 || s.macs[id] != key.SrcMAC {
		id = s.resolve(key.SrcMAC)
		s.pos[i] = id
	}
	b.total += bytes
	b.dstPort.add(uint64(key.DstPort), bytes)
	if key.Proto == netpkt.ProtoUDP {
		b.srcPort.add(uint64(key.SrcPort), bytes)
	}
	b.peers.add(id, bytes)
}

// cursor reserves the positions of the next n records of bin and
// returns the first. Callers hold s.mu.
func (s *Shard) cursor(bin, n int) int {
	if bin != s.posBin {
		s.posBin, s.posNext = bin, 0
	}
	i := s.posNext
	s.posNext += n
	for len(s.pos) < s.posNext {
		s.pos = append(s.pos, -1)
	}
	return i
}

// resolve returns mac's peer id, giving a MAC the shard has not seen
// the next one. Callers hold s.mu.
func (s *Shard) resolve(mac netpkt.MAC) int32 {
	k := mac.Key()
	id, ok := s.ids[k]
	if !ok {
		id = int32(len(s.macs))
		s.ids[k] = id
		s.macs = append(s.macs, mac)
	}
	return id
}

// flush folds one shard bin into the collector's store and resets it.
// Callers hold s.mu. The store takes the shard's id -> MAC slice with
// the bin: ids are only appended, so it covers every id the store
// holds.
func (s *Shard) flush(b *shardBin) {
	c := s.c
	c.mu.Lock()
	c.st.macs = s.macs
	c.st.addFrom(b, c.horizon.Load())
	c.mu.Unlock()
	b.reset()
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

// peerBytes holds byte counts by peer id: bytes[id] is id's count while
// seen has id's bit set, and 0 otherwise. Both arrays grow
// geometrically, and reset clears only the seen ids, so a reused
// peerBytes costs its peers, not its capacity. Each id's count is the
// sum of its adds in order, as a counter table's entry would be.
type peerBytes struct {
	bytes []float64
	seen  []uint64
}

func (p *peerBytes) add(id int32, v float64) {
	if int(id) >= len(p.bytes) {
		p.grow(int(id) + 1)
	}
	p.bytes[id] += v
	p.seen[id>>6] |= 1 << (id & 63)
}

// grow lengthens both arrays to hold n ids; append grows the backing
// arrays geometrically.
func (p *peerBytes) grow(n int) {
	p.bytes = append(p.bytes, make([]float64, n-len(p.bytes))...)
	if words := (n + 63) >> 6; words > len(p.seen) {
		p.seen = append(p.seen, make([]uint64, words-len(p.seen))...)
	}
}

// addFrom adds q's count of every id q has seen.
func (p *peerBytes) addFrom(q *peerBytes) {
	if len(q.bytes) > len(p.bytes) {
		p.grow(len(q.bytes))
	}
	for w, word := range q.seen {
		p.seen[w] |= word
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			p.bytes[id] += q.bytes[id]
		}
	}
}

func (p *peerBytes) reset() {
	for w, word := range p.seen {
		for ; word != 0; word &= word - 1 {
			p.bytes[w<<6|bits.TrailingZeros64(word)] = 0
		}
		p.seen[w] = 0
	}
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
// port numbers spread across the table.
func mixU64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
