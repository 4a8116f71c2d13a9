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
// keep their order, rotate, lose one, gain a new one mid-slice, have a
// position swapped to a new key, or have a flow's SrcMAC, or its ports
// or protocol, rewritten in place (the offer keeps pointing at the same
// key). Keys live in their own allocations so a rewrite is seen through
// the pointer the previous batch held.
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
	mutSwapKey
	mutRewritePorts
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
	k := &netpkt.FlowKey{
		SrcMAC: positionMAC(m),
		Src:    netip.AddrFrom4([4]byte{198, 51, byte(m >> 8), byte(m)}),
		Dst:    netip.AddrFrom4([4]byte{100, 64, 0, 1}),
	}
	p.drawPorts(k)
	return k
}

// drawPorts gives k a protocol and ports drawn from a small set, so
// flows share port pairs.
func (p *positionFlows) drawPorts(k *netpkt.FlowKey) {
	k.Proto = []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP}[p.rng.Intn(2)]
	k.SrcPort = []uint16{53, 123, 443, 11211}[p.rng.Intn(4)]
	k.DstPort = []uint16{80, 443}[p.rng.Intn(2)]
}

// positionMAC is source MAC number m of the position tests.
func positionMAC(m int) netpkt.MAC {
	return netpkt.MAC{0x02, 0x40, 0, byte(m >> 16), byte(m >> 8), byte(m)}
}

// senderMAC returns the number of a source MAC, as positionMAC numbers
// them: one a flow sends from now, or one no flow has used yet.
func (p *positionFlows) senderMAC() int {
	if p.rng.Intn(2) == 0 {
		return p.freshMAC()
	}
	return int(p.keys[p.rng.Intn(len(p.keys))].SrcMAC.Key() & 0xffffff)
}

// freshMAC returns a source MAC no flow has used yet.
func (p *positionFlows) freshMAC() int {
	p.nextM++
	return p.nextM - 1
}

// mutate changes the flows one way; a kind outside [0, mutKinds) keeps
// them, and so do a rotate or drop of a single flow.
func (p *positionFlows) mutate(kind int) {
	n := len(p.keys)
	switch kind {
	case mutRotate:
		if n < 2 {
			return
		}
		k := 1 + p.rng.Intn(n-1)
		p.keys = append(p.keys[k:], p.keys[:k]...)
	case mutDrop:
		if n < 2 {
			return
		}
		i := p.rng.Intn(n)
		p.keys = append(p.keys[:i:i], p.keys[i+1:]...)
	case mutInsert:
		i := n / 2
		k := p.key(p.freshMAC())
		p.keys = append(p.keys[:i:i], append([]*netpkt.FlowKey{k}, p.keys[i:]...)...)
	case mutRewriteMAC:
		k := p.keys[p.rng.Intn(n)]
		k.SrcMAC = positionMAC(p.senderMAC())
	case mutSwapKey:
		i := p.rng.Intn(n)
		p.keys[i] = p.key(p.senderMAC())
	case mutRewritePorts:
		p.drawPorts(p.keys[p.rng.Intn(n)])
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
// positions start at 0), the positions the store's cache will take as
// hits, the ones whose cached peer the MAC compare will reject, and the
// ones whose MAC matches but whose cached port pair the key compare
// will reject.
func positionProbe(s *Shard, d []fabric.Delivery) (hits, staleMAC, stalePorts int) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	st := &s.c.st
	for i := range d {
		if i >= len(st.pos) || st.pos[i] == noPos {
			continue
		}
		key := d[i].Offer.Flow
		switch p := st.pos[i]; {
		case st.macs[p>>pairBits] != key.SrcMAC:
			staleMAC++
		case st.pairs[p&noPair].key != pairKey(key):
			stalePorts++
		default:
			hits++
		}
	}
	return hits, staleMAC, stalePorts
}

// TestObserveDeliveredPositionMatchesMapCollector drives the positional
// cache through every way a port's deliveries change between ticks and
// pins each tick's accessors, peer counts under both filters included,
// to the reference collector bit for bit: each record is counted into
// its bin as it arrives, so sums keep the reference's order. A cached
// position taken without its MAC compare would count a rewritten flow's
// bytes on the peer it sent from before, and one taken without its key
// compare on the ports it used before.
func TestObserveDeliveredPositionMatchesMapCollector(t *testing.T) {
	const ticks = 3 * peerWindow
	for trial := 0; trial < 3; trial++ {
		flows := newPositionFlows(int64(900+trial), 40+trial*25)
		want, got := NewMapCollector(), NewCollectorShards(1)
		sh := got.Shard(0)
		var ran [mutKinds]int
		var hits, staleMAC, stalePorts int
		for tick := 0; tick < ticks; tick++ {
			if tick > 0 {
				kind := flows.rng.Intn(mutKinds)
				flows.mutate(kind)
				ran[kind]++
			}
			d, recs := flows.batch(tick)
			h, sm, sp := positionProbe(sh, d)
			hits, staleMAC, stalePorts = hits+h, staleMAC+sm, stalePorts+sp
			want.ObserveAll(recs)
			sh.ObserveDelivered(tick, d)
			compareCollectors(t, want, got, 0)
		}
		for kind, n := range ran {
			if n == 0 {
				t.Fatalf("trial %d: mutation kind %d never ran", trial, kind)
			}
		}
		if hits == 0 || staleMAC == 0 || stalePorts == 0 {
			t.Fatalf("trial %d: %d positional hits, %d stale peers, %d stale port pairs; want all > 0", trial, hits, staleMAC, stalePorts)
		}
	}
}

// TestObserveDeliveredCachedWarmAllocs pins the engine's monitor path
// once warm: a port's batch resolved entirely from the positional
// cache, revisiting bins the hot ring holds, allocates nothing.
func TestObserveDeliveredCachedWarmAllocs(t *testing.T) {
	flows := newPositionFlows(5, 300)
	d, _ := flows.batch(0)
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	bin := 0
	step := func() {
		sh.ObserveDelivered(bin%8, d) // revisits bins the hot ring holds
		bin++
	}
	for bin < 16 {
		step()
	}
	if hits, _, _ := positionProbe(sh, d); hits != len(d) {
		t.Fatalf("warm batch: %d of %d positions hit", hits, len(d))
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("warm ObserveDelivered: %v allocations per batch, want 0", allocs)
	}
}

// modSet is the member set of the source MACs whose last byte is not k
// modulo 3; each call returns a new value.
func modSet(k int) Members {
	return &funcSet{func(m netpkt.MAC) bool { return int(m[5])%3 != k }}
}

// FuzzObserveDelivered runs one port's deliveries (size mod 128 flows
// to start with) through up to 3*peerWindow ticks, one per op byte.
// Bits 0-2 mutate the batch before the tick (keep, rotate, drop,
// insert, rewrite a key's MAC in place, swap a position to a new key,
// rewrite a key's ports or protocol in place; 7 keeps). Bits 3-4 change the member sets between ticks: a
// modSet replaced by one with another rule, a registry grown by one MAC
// as a Join grows it (bit 6: a MAC a flow sends from, or the next one
// no flow has used yet), or the modSet replaced by a new value with the
// same rule. Two collectors observe every batch, each counting under
// its own set; bit 5 has each count once under the other's set first.
// After every tick each collector's accessors must equal MapCollector's
// bit for bit: Bins, the series and TopSrcPorts over every bin, and the
// per-bin accessors, peer counts under nil and its set included, at
// the bins of the peer window and the one below it. The seed corpus is
// TestObserveDeliveredPositionMatchesMapCollector's trials.
func FuzzObserveDelivered(f *testing.F) {
	for trial := 0; trial < 3; trial++ {
		seed := int64(900 + trial)
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*peerWindow)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(seed, uint8(40+trial*25), ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ops []byte) {
		if len(ops) > 3*peerWindow {
			ops = ops[:3*peerWindow]
		}
		flows := newPositionFlows(seed, max(1, int(size)%128))
		want := NewMapCollector()
		got := [2]*Collector{NewCollectorShards(1), NewCollectorShards(1)}
		rule, joined := 0, &macList{}
		sets := [2]Members{modSet(rule), joined}
		for tick, op := range ops {
			if tick > 0 {
				flows.mutate(int(op & 7))
			}
			switch op >> 3 & 3 {
			case 1:
				rule = (rule + 1) % 3
				sets[0] = modSet(rule)
			case 2:
				m := flows.keys[flows.rng.Intn(len(flows.keys))].SrcMAC
				if op>>6&1 == 1 {
					m = positionMAC(flows.nextM)
				}
				joined = joined.with(m)
				sets[1] = joined
			case 3:
				sets[0] = modSet(rule)
			}
			d, recs := flows.batch(tick)
			want.ObserveAll(recs)
			for i, c := range got {
				c.Shard(0).ObserveDelivered(tick, d)
				if op>>5&1 == 1 {
					c.PeerCount(tick, 0, sets[1-i])
				}
				compareAccessors(t, want, c, 0, tick-peerWindow, nil, sets[i])
			}
		}
	})
}

// TestObserveDeliveredPastPairLimit drives a collector through half as
// many port pairs again as a position can number, then mutates the
// flows as TestObserveDeliveredPositionMatchesMapCollector does. The
// pairs numbered first stay cached, a record whose pair came later
// resolves through the maps on every tick, and every tick's accessors
// equal the reference's bit for bit.
func TestObserveDeliveredPastPairLimit(t *testing.T) {
	flows := newPositionFlows(77, 3*maxPairs/2)
	for i, k := range flows.keys {
		if i%3 == 0 {
			k.Proto = netpkt.ProtoTCP
		} else {
			k.Proto = netpkt.ProtoUDP
		}
		k.SrcPort, k.DstPort = uint16(1024+i), uint16(20000+i)
	}
	want, got := NewMapCollector(), NewCollectorShards(1)
	sh := got.Shard(0)
	for tick := 0; tick < 2*peerWindow; tick++ {
		if tick > 1 {
			flows.mutate(flows.rng.Intn(mutKinds))
		}
		d, recs := flows.batch(tick)
		want.ObserveAll(recs)
		sh.ObserveDelivered(tick, d)
		compareCollectors(t, want, got, 0)
		if tick == 0 {
			hits, _, _ := positionProbe(sh, d)
			if pairs := len(got.st.pairs); pairs != maxPairs {
				t.Fatalf("%d port pairs numbered, want %d", pairs, maxPairs)
			}
			if hits == 0 || hits == len(d) {
				t.Fatalf("%d of %d positions cached; want some, not all", hits, len(d))
			}
		}
	}
}
