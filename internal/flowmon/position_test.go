package flowmon

import (
	"math/rand"
	"net/netip"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// positionFlows is one port's delivered flows across ticks, mutated
// between batches the ways a port's forward queue changes: the flows
// keep their order, rotate, lose one, gain a new one mid-slice, or have
// a flow's SrcMAC rewritten in place (the offer keeps pointing at the
// same key). Keys live in their own allocations so a rewrite is seen
// through the pointer the previous batch held.
type positionFlows struct {
	rng   *rand.Rand
	keys  []*netpkt.FlowKey
	nextM int // the next fresh source MAC's index
}

const (
	mutKeep = iota
	mutRotate
	mutDrop
	mutInsert
	mutRewriteMAC
	mutKinds
)

func newPositionFlows(seed int64, n int) *positionFlows {
	p := &positionFlows{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		p.keys = append(p.keys, p.key(i%(n/2+1))) // some MACs send two flows
	}
	p.nextM = n/2 + 1
	return p
}

// key is a flow from source MAC m; the last MAC byte alternates parity
// with m, so evenMAC keeps about half the peers.
func (p *positionFlows) key(m int) *netpkt.FlowKey {
	protos := []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP}
	return &netpkt.FlowKey{
		SrcMAC:  netpkt.MAC{0x02, 0x40, 0, byte(m >> 16), byte(m >> 8), byte(m)},
		Src:     netip.AddrFrom4([4]byte{198, 51, byte(m >> 8), byte(m)}),
		Dst:     netip.AddrFrom4([4]byte{100, 64, 0, 1}),
		Proto:   protos[p.rng.Intn(len(protos))],
		SrcPort: []uint16{53, 123, 443, 11211}[p.rng.Intn(4)],
		DstPort: []uint16{80, 443}[p.rng.Intn(2)],
	}
}

// freshMAC returns a source MAC no flow has used yet.
func (p *positionFlows) freshMAC() int {
	p.nextM++
	return p.nextM - 1
}

func (p *positionFlows) mutate(kind int) {
	n := len(p.keys)
	switch kind {
	case mutRotate:
		k := 1 + p.rng.Intn(n-1)
		p.keys = append(p.keys[k:], p.keys[:k]...)
	case mutDrop:
		i := p.rng.Intn(n)
		p.keys = append(p.keys[:i:i], p.keys[i+1:]...)
	case mutInsert:
		i := n / 2
		k := p.key(p.freshMAC())
		p.keys = append(p.keys[:i:i], append([]*netpkt.FlowKey{k}, p.keys[i:]...)...)
	case mutRewriteMAC:
		k := p.keys[p.rng.Intn(n)]
		m := p.freshMAC()
		if p.rng.Intn(2) == 0 { // or a MAC another flow already sends from
			m = int(p.keys[p.rng.Intn(n)].SrcMAC.Key() & 0xffffff)
		}
		k.SrcMAC = netpkt.MAC{0x02, 0x40, 0, byte(m >> 16), byte(m >> 8), byte(m)}
	}
}

// batch is the tick's deliveries with fresh byte counts, and the
// matching records for the reference collector.
func (p *positionFlows) batch(tick int) ([]fabric.Delivery, []record) {
	offers := make([]fabric.Offer, len(p.keys))
	out := make([]fabric.Delivery, len(p.keys))
	recs := make([]record, len(p.keys))
	for i, k := range p.keys {
		bytes := float64(p.rng.Intn(2000)) * 100
		offers[i] = fabric.Offer{Flow: k}
		out[i] = fabric.Delivery{Offer: &offers[i], Bytes: bytes}
		recs[i] = record{Bin: tick, Key: *k, Bytes: bytes}
	}
	return out, recs
}

// positionProbe counts, before a batch for a new bin is observed (its
// positions start at 0), the positions the shard's cache will take as
// hits and the ones whose cached id the MAC compare will reject.
func positionProbe(s *Shard, d []fabric.Delivery) (hits, stale int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range d {
		if i >= len(s.pos) || s.pos[i] < 0 {
			continue
		}
		if s.macs[s.pos[i]] == d[i].Offer.Flow.SrcMAC {
			hits++
		} else {
			stale++
		}
	}
	return hits, stale
}

// TestObserveDeliveredPositionMatchesMapCollector drives the positional
// cache through every way a port's deliveries change between ticks and
// pins each tick's accessors, peer counts under both filters included,
// to the reference collector bit for bit: one shard flushes each bin
// once, so sums keep the reference's order. A cached position taken
// without its MAC compare would count a rewritten flow's bytes on the
// peer it sent from before.
func TestObserveDeliveredPositionMatchesMapCollector(t *testing.T) {
	const ticks = 3 * peerWindow
	for trial := 0; trial < 3; trial++ {
		flows := newPositionFlows(int64(900+trial), 40+trial*25)
		want, got := NewMapCollector(), NewCollectorShards(1)
		sh := got.Shard(0)
		var ran [mutKinds]int
		var hits, stale int
		for tick := 0; tick < ticks; tick++ {
			if tick > 0 {
				kind := flows.rng.Intn(mutKinds)
				flows.mutate(kind)
				ran[kind]++
			}
			d, recs := flows.batch(tick)
			h, s := positionProbe(sh, d)
			hits, stale = hits+h, stale+s
			want.ObserveAll(recs)
			sh.ObserveDelivered(tick, d)
			compareCollectors(t, want, got, 0)
		}
		for kind, n := range ran {
			if n == 0 {
				t.Fatalf("trial %d: mutation kind %d never ran", trial, kind)
			}
		}
		if hits == 0 || stale == 0 {
			t.Fatalf("trial %d: %d positional hits, %d stale positions; want both > 0", trial, hits, stale)
		}
	}
}

// TestObserveDeliveredCachedWarmAllocs pins the engine's monitor path
// once warm: a port's batch resolved entirely from the positional
// cache, with ring rotation flushing into the store's hot bins,
// allocates nothing.
func TestObserveDeliveredCachedWarmAllocs(t *testing.T) {
	flows := newPositionFlows(5, 300)
	d, _ := flows.batch(0)
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	bin := 0
	step := func() {
		sh.ObserveDelivered(bin%(2*ringBins), d) // revisits bins: flushes land in hot bins
		bin++
	}
	for bin < 4*ringBins {
		step()
	}
	if hits, _ := positionProbe(sh, d); hits != len(d) {
		t.Fatalf("warm batch: %d of %d positions hit", hits, len(d))
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("warm ObserveDelivered: %v allocations per batch, want 0", allocs)
	}
}
