package flowmon

import (
	"math/rand"
	"net/netip"
	"testing"

	"stellar/internal/netpkt"
)

func horizonKey(i int) *netpkt.FlowKey {
	return &netpkt.FlowKey{
		SrcMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, byte(i)},
		Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}),
		Dst:     netip.AddrFrom4([4]byte{100, 64, 0, 1}),
		Proto:   netpkt.ProtoUDP,
		SrcPort: uint16(1000 + i),
		DstPort: 443,
	}
}

// TestMergeHorizonBoundsAccessorMerges: a bin above the horizon keeps
// its peers, however far the writer runs ahead, until the horizon
// reaches it and its read is done; and a bin written while an older bin
// is read sums bit for bit as in a collector nobody read.
func TestMergeHorizonBoundsAccessorMerges(t *testing.T) {
	c := NewCollectorShards(1)
	for bin := 0; bin < 3; bin++ {
		c.Shard(bin%2).ObserveFlow(bin, horizonKey(bin), float64(100*(bin+1)))
	}
	c.SetMergeHorizon(1)
	c.Shard(0).ObserveFlow(2, horizonKey(7), 50)
	for bin := 3; bin < 3+3*peerWindow; bin++ { // the writer runs ahead
		c.Shard(0).ObserveFlow(bin, horizonKey(bin), 1)
	}
	if got := c.TotalBytes(2); got != 350 {
		t.Fatalf("bin 2 above the horizon: %v bytes, want 350", got)
	}
	c.SetMergeHorizon(2)
	if got := c.PeerCount(2, 0, anyMAC); got != 2 {
		t.Fatalf("bin 2 peers at its read: %d, want 2", got)
	}
	c.SetMergeHorizon(3)
	if got := c.PeerCount(2, 0, anyMAC); got != 0 {
		t.Fatalf("bin 2 peers once the horizon passed it: %d, want 0", got)
	}
	if got := c.TotalBytes(2); got != 350 {
		t.Fatalf("bin 2 roll-up once the horizon passed it: %v bytes, want 350", got)
	}

	// Bin T+1 is written in pieces while bin T is read at horizon T;
	// its sums must equal those of a collector nobody read, bit for bit.
	const T = 5
	read, unread := NewCollectorShards(1), NewCollectorShards(1)
	rng := rand.New(rand.NewSource(3))
	recs := randRecords(rng, 600, 2)
	for i := range recs {
		recs[i].Bin = T + recs[i].Bin
		recs[i].Bytes = rng.Float64() * 1500
	}
	for i := 0; i < len(recs); i += 40 {
		part := recs[i:min(i+40, len(recs))]
		observeFlows(read.Shard(0), part)
		observeFlows(unread.Shard(0), part)
		read.SetMergeHorizon(T)
		read.PeerCount(T, 0, anyMAC)
		read.TotalBytes(T + 1)
		read.SrcPortShares(T + 1)
	}
	unread.SetMergeHorizon(T)
	compareCollectors(t, unread, read, 0)
}

// TestMergeHorizonDefaultUnbounded: without SetMergeHorizon every
// accessor sees a bin as soon as it is observed.
func TestMergeHorizonDefaultUnbounded(t *testing.T) {
	c := NewCollectorShards(1)
	c.Shard(0).ObserveFlow(41, horizonKey(1), 10)
	if got := c.TotalBytes(41); got != 10 {
		t.Fatalf("unbounded horizon hid bin 41: %v", got)
	}
}

// TestHorizonRetiresAheadOfWriter runs the engine's sequence — the
// spine observes bin T+1, then the fold moves the horizon to T and
// counts T's peers — and requires bin T+2's slot of the hot ring to be
// free before the writer reaches it: retiring the bin that left the
// peer window is the horizon's work, off the observe path.
func TestHorizonRetiresAheadOfWriter(t *testing.T) {
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	c.SetMergeHorizon(-1)
	observeBin(sh, 0, 8)
	for tick := 0; tick < 4*peerWindow; tick++ {
		observeBin(sh, tick+1, 8)
		c.SetMergeHorizon(tick)
		if got := c.PeerCount(tick, 0, anyMAC); got != 8 {
			t.Fatalf("tick %d: %d peers, want 8", tick, got)
		}
		if held := PeerDetailBins(c); held > peerWindow {
			t.Fatalf("tick %d: %d bins hold peer detail, want <= %d", tick, held, peerWindow)
		}
		c.mu.Lock()
		next := c.st.at(tick + 2)
		taken, holder := next.used, next.bin
		c.mu.Unlock()
		if taken {
			t.Fatalf("tick %d: bin %d's slot still holds bin %d", tick, tick+2, holder)
		}
	}
}
