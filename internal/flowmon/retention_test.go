package flowmon

import (
	"net/netip"
	"runtime"
	"testing"
	"unsafe"

	"stellar/internal/netpkt"
)

// retentionKey is the flow of peer p in the retention tests: UDP from
// source port 123 (or 53 for odd peers) to the victim's port 443.
func retentionKey(p int) netpkt.FlowKey {
	return netpkt.FlowKey{
		SrcMAC:  netpkt.MAC{0x02, 0x20, 0, 0, byte(p >> 8), byte(p)},
		Src:     netip.AddrFrom4([4]byte{198, 51, byte(p >> 8), byte(p)}),
		Dst:     netip.AddrFrom4([4]byte{100, 64, 0, 1}),
		Proto:   netpkt.ProtoUDP,
		SrcPort: 123 - 70*uint16(p%2),
		DstPort: 443,
	}
}

// observeBin streams one bin of the retention workload: peers flows of
// 1000 + bin bytes each.
func observeBin(sh *Shard, bin, peers int) {
	for p := 0; p < peers; p++ {
		key := retentionKey(p)
		sh.ObserveFlow(bin, &key, float64(1000+bin))
	}
}

// TestCollectorRetention drives one collector through 10 000 in-order
// bins, reading each bin's peers the way the engine's fold does, and
// pins the retention contract: at most peerWindow bins ever hold peer
// detail, bins that left the window count 0 peers while keeping their
// roll-up, and a late record for such a bin still updates its roll-up
// exactly.
func TestCollectorRetention(t *testing.T) {
	const bins, peers = 10_000, 24
	c := NewCollectorShards(1)
	sh := c.Shard(1)
	for bin := 0; bin < bins; bin++ {
		observeBin(sh, bin, peers)
		c.SetMergeHorizon(bin)
		if got := c.PeerCount(bin, 0, anyMAC); got != peers {
			t.Fatalf("bin %d: %d peers at its fold, want %d", bin, got, peers)
		}
		if held := PeerDetailBins(c); held > peerWindow {
			t.Fatalf("bin %d: %d bins hold peer detail, want <= %d", bin, held, peerWindow)
		}
	}
	c.SetMergeHorizon(int(^uint(0) >> 1))

	if got := len(c.Bins()); got != bins {
		t.Fatalf("Bins: %d, want %d", got, bins)
	}
	for _, bin := range []int{0, 5, bins - peerWindow - 1} {
		if got := c.PeerCount(bin, 0, anyMAC); got != 0 {
			t.Fatalf("cold bin %d: PeerCount %d, want 0 (outside the window)", bin, got)
		}
	}
	if got := c.PeerCount(bins-peerWindow, 0, anyMAC); got != peers {
		t.Fatalf("oldest bin of the window: PeerCount %d, want %d", got, peers)
	}

	// The roll-up of a cold bin is exact, and a late record updates it:
	// into a known source port and into one the bin has not seen.
	const bin = 5
	per := float64(1000 + bin)
	var total, from123 float64
	for p := 0; p < peers; p++ {
		total += per
		if p%2 == 0 {
			from123 += per
		}
	}
	if got := c.TotalBytes(bin); got != total {
		t.Fatalf("cold bin TotalBytes %v, want %v", got, total)
	}
	late := retentionKey(0)
	sh.ObserveFlow(bin, &late, 777)
	late.SrcPort = 19
	sh.ObserveFlow(bin, &late, 55)
	total += 777 + 55
	from123 += 777
	if got := c.TotalBytes(bin); got != total {
		t.Fatalf("late record: TotalBytes %v, want %v", got, total)
	}
	if got := c.SrcPortBytes(bin, 123); got != from123 {
		t.Fatalf("late record: SrcPortBytes(123) %v, want %v", got, from123)
	}
	if got := c.SrcPortBytes(bin, 19); got != 55 {
		t.Fatalf("late record: SrcPortBytes(19) %v, want 55", got)
	}
	if got := c.PeerCount(bin, 0, anyMAC); got != 0 {
		t.Fatalf("late record: cold bin PeerCount %d, want 0", got)
	}
	if held := PeerDetailBins(c); held > peerWindow {
		t.Fatalf("after the late record: %d bins hold peer detail", held)
	}
}

// TestCollectorRetentionWarmMergeAllocs: once the hot ring is warm, a
// new bin's observation, the horizon advance — which compacts the bin
// leaving the window — and the fold's PeerCount read under an unchanged
// member set reuse the ring's tables and the set's verdicts. Only the cold tier's amortized
// growth allocates, which rounds to 0 per bin, so a peer table per bin
// would show up here as at least one allocation.
func TestCollectorRetentionWarmMergeAllocs(t *testing.T) {
	const peers = 200
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	keep := &funcSet{func(m netpkt.MAC) bool { return m[5]%3 != 0 }}
	bin := 0
	step := func() {
		observeBin(sh, bin, peers)
		c.SetMergeHorizon(bin)
		if c.PeerCount(bin, 0, keep) == 0 {
			t.Fatal("no peers counted")
		}
		bin++
	}
	for bin < 4*peerWindow {
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("warm observe + horizon + PeerCount: %v allocations per bin, want 0", allocs)
	}
}

// TestColdTierCompactAllocsRetention pins the cold tier's growth to what
// it keeps: compacting 10 000 bins past a warm window allocates no more
// than the bytes the tier still holds afterwards plus one chunk, so no
// run is copied when the tier grows — a doubling arena re-copies its
// whole history at every growth.
func TestColdTierCompactAllocsRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow memory of its own as the tier grows")
	}
	const bins, peers = 10_000, 24
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	bin := 0
	for ; bin < 2*peerWindow; bin++ {
		observeBin(sh, bin, peers)
		c.SetMergeHorizon(bin)
	}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for end := bin + bins; bin < end; bin++ {
		observeBin(sh, bin, peers)
		c.SetMergeHorizon(bin)
	}
	runtime.ReadMemStats(&mid)
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated := int64(mid.TotalAlloc - before.TotalAlloc)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	chunk := 0
	for _, ch := range c.st.chunks {
		chunk = max(chunk, cap(ch))
	}
	slack := int64(chunk) * int64(unsafe.Sizeof(rollEntry{}))
	t.Logf("%d bins: %d B allocated, %d B retained, largest chunk %d B", bins, allocated, retained, slack)
	if allocated > retained+slack {
		t.Fatalf("compacting %d bins allocated %d B; the cold tier retains %d B, and one chunk is %d B",
			bins, allocated, retained, slack)
	}
	runtime.KeepAlive(c)
}
