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
// the batch but the peer id and port pair each position resolved to.
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

// denseBytes holds byte counts by dense id — a peer id, or a roll-up
// id: bytes[id] is id's count while seen has id's bit set, and 0
// otherwise. Both arrays grow geometrically, in whole cache lines, and
// reset clears only the seen ids, so a reused denseBytes costs its ids,
// not its capacity. Each id's count is the sum of its adds in order.
type denseBytes struct {
	bytes []float64
	seen  []uint64
}

func (p *denseBytes) add(id int32, v float64) {
	if int(id) >= len(p.bytes) {
		p.grow(int(id) + 1)
	}
	p.bytes[id] += v
	p.seen[id>>6] |= 1 << (id & 63)
}

// grow lengthens both arrays to hold n ids, each to a whole number of
// 64-byte cache lines, and append grows the backing arrays
// geometrically. A small array of one collector would otherwise share
// a line with another collector's, and the engine's workers write
// different collectors' bins at the same time, every record setting a
// seen bit.
func (p *denseBytes) grow(n int) {
	p.bytes = append(p.bytes, make([]float64, (n+7)&^7-len(p.bytes))...)
	if words := (n + 511) >> 9 << 3; words > len(p.seen) {
		p.seen = append(p.seen, make([]uint64, words-len(p.seen))...)
	}
}

// span is one past the highest id p has seen, 0 when it has seen none.
func (p *denseBytes) span() int {
	for w := len(p.seen) - 1; w >= 0; w-- {
		if p.seen[w] != 0 {
			return w<<6 + 64 - bits.LeadingZeros64(p.seen[w])
		}
	}
	return 0
}

// each calls fn for every seen id, in id order.
func (p *denseBytes) each(fn func(id int, bytes float64)) {
	for w, word := range p.seen {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			fn(id, p.bytes[id])
		}
	}
}

func (p *denseBytes) reset() {
	for w, word := range p.seen {
		for ; word != 0; word &= word - 1 {
			p.bytes[w<<6|bits.TrailingZeros64(word)] = 0
		}
		p.seen[w] = 0
	}
}
