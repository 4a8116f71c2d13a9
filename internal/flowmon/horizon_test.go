package flowmon

import (
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

// TestMergeHorizonBoundsAccessorMerges: bins above the horizon stay in
// flight — accessors neither see them nor split their accumulation —
// until the horizon advances past them.
func TestMergeHorizonBoundsAccessorMerges(t *testing.T) {
	c := NewCollectorShards(1)
	for bin := 0; bin < 3; bin++ {
		c.Shard(bin%2).ObserveFlow(bin, horizonKey(bin), float64(100*(bin+1)))
	}

	c.SetMergeHorizon(1)
	if got := c.Bins(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("bins at horizon 1: %v, want [0 1]", got)
	}
	if got := c.TotalBytes(2); got != 0 {
		t.Fatalf("bin 2 visible above the horizon: %v bytes", got)
	}
	// The in-flight bin keeps accumulating while below-horizon reads
	// proceed; the horizon guarantees its eventual flush is one piece.
	c.Shard(0).ObserveFlow(2, horizonKey(7), 50)

	c.SetMergeHorizon(2)
	if got := c.TotalBytes(2); got != 350 {
		t.Fatalf("bin 2 after horizon advance: %v bytes, want 350", got)
	}
	if got := c.PeerCount(2, 0, anyMAC); got != 2 {
		t.Fatalf("bin 2 peers: %d, want 2", got)
	}
}

// TestMergeHorizonDefaultUnbounded: without SetMergeHorizon the
// collector behaves exactly as before — every accessor read drains all
// in-flight bins.
func TestMergeHorizonDefaultUnbounded(t *testing.T) {
	c := NewCollectorShards(1)
	c.Shard(0).ObserveFlow(41, horizonKey(1), 10)
	if got := c.TotalBytes(41); got != 10 {
		t.Fatalf("unbounded horizon hid bin 41: %v", got)
	}
}

// TestMergeHorizonRingRotationUnaffected: the observe path still
// flushes a slot whose bin the writer moved past, even above the
// horizon, so a long-running writer never wedges on a stale slot.
func TestMergeHorizonRingRotationUnaffected(t *testing.T) {
	c := NewCollectorShards(1)
	c.SetMergeHorizon(-1) // nothing mergeable by accessors
	sh := c.Shard(0)
	// Bins 0..4 on one shard: bin 4 reuses bin 0's ring slot, forcing a
	// rotation flush of bin 0 into the store despite the horizon.
	for bin := 0; bin < 5; bin++ {
		sh.ObserveFlow(bin, horizonKey(bin), 100)
	}
	c.mu.Lock()
	flushedBin0 := c.st.totalBytes(0) == 100
	c.mu.Unlock()
	if !flushedBin0 {
		t.Fatal("ring rotation no longer flushes past-horizon bins")
	}
}
