package flowmon

import (
	"math/bits"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// Shard is a collector's write handle: every worker index gets the
// same one, and each observation counts its records straight into the
// collector's store under the collector's lock — once per batch for
// ObserveDelivered. The steady-state observe path performs no
// allocation per record.
type Shard struct{ c *Collector }

// ObserveFlow adds one flow observation. It reads key only during the
// call.
func (s *Shard) ObserveFlow(bin int, key *netpkt.FlowKey, bytes float64) {
	c := s.c
	c.mu.Lock()
	c.st.add(c.st.slot(bin), bin, c.st.cursor(bin, 1), key, bytes)
	c.mu.Unlock()
}

// ObserveDelivered adds one port's delivered flows of an egress tick —
// the batch a fabric.FlowVisitor receives — under one lock acquisition,
// in batch order. It reads each flow key in place and keeps nothing of
// the batch but the peer id each position resolved to.
func (s *Shard) ObserveDelivered(bin int, delivered []fabric.Delivery) {
	if len(delivered) == 0 {
		return
	}
	c := s.c
	c.mu.Lock()
	h, base := c.st.slot(bin), c.st.cursor(bin, len(delivered))
	for i := range delivered {
		c.st.add(h, bin, base+i, delivered[i].Offer.Flow, delivered[i].Bytes)
	}
	c.mu.Unlock()
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

// span is one past the highest id p has seen, 0 when it has seen none.
func (p *peerBytes) span() int {
	for w := len(p.seen) - 1; w >= 0; w-- {
		if p.seen[w] != 0 {
			return w<<6 + 64 - bits.LeadingZeros64(p.seen[w])
		}
	}
	return 0
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
