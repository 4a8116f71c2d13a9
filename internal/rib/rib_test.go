package rib

import (
	"net/netip"
	"sync"
	"testing"
	"testing/quick"

	"stellar/internal/bgp"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func attrs(asns ...uint32) bgp.PathAttrs {
	return bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
}

func TestAddLookupRemove(t *testing.T) {
	tbl := New()
	k := PathKey{Prefix: pfx("100.10.10.0/24"), Peer: "as64512"}
	tbl.Add(k, 64512, attrs(64512))
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	got := tbl.Lookup(k.Prefix)
	if len(got) != 1 || got[0].Key != k || got[0].PeerAS != 64512 {
		t.Fatalf("Lookup: %+v", got)
	}
	if !tbl.Remove(k) {
		t.Fatal("Remove returned false")
	}
	if tbl.Remove(k) {
		t.Fatal("double Remove returned true")
	}
	if tbl.Len() != 0 || len(tbl.Prefixes()) != 0 {
		t.Fatal("table not empty after remove")
	}
}

func TestAddReplacesSamePath(t *testing.T) {
	tbl := New()
	k := PathKey{Prefix: pfx("100.10.10.0/24"), Peer: "a"}
	p1 := tbl.Add(k, 1, attrs(1))
	p2 := tbl.Add(k, 1, attrs(1, 2))
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace)", tbl.Len())
	}
	if p2.Seq <= p1.Seq {
		t.Fatal("Seq did not advance")
	}
	if tbl.Best(k.Prefix).Attrs.PathLen() != 2 {
		t.Fatal("replacement not visible")
	}
}

func TestAddPathMultiplePathsSamePrefix(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.10/32")
	tbl.Add(PathKey{Prefix: prefix, Peer: "rs", PathID: 1}, 64512, attrs(64512))
	tbl.Add(PathKey{Prefix: prefix, Peer: "rs", PathID: 2}, 64513, attrs(64513))
	if got := tbl.Lookup(prefix); len(got) != 2 {
		t.Fatalf("want 2 paths, got %d", len(got))
	}
}

func TestBestPathLocalPref(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	low, high := uint32(50), uint32(200)
	aLow := attrs(1, 2)
	aLow.LocalPref = &low
	aHigh := attrs(1, 2, 3, 4) // longer path but higher pref
	aHigh.LocalPref = &high
	tbl.Add(PathKey{Prefix: prefix, Peer: "a"}, 1, aLow)
	tbl.Add(PathKey{Prefix: prefix, Peer: "b"}, 2, aHigh)
	if best := tbl.Best(prefix); best.Key.Peer != "b" {
		t.Fatalf("best = %s, want b (higher local pref)", best.Key.Peer)
	}
}

func TestBestPathShorterASPath(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	tbl.Add(PathKey{Prefix: prefix, Peer: "long"}, 1, attrs(1, 2, 3))
	tbl.Add(PathKey{Prefix: prefix, Peer: "short"}, 2, attrs(9))
	if best := tbl.Best(prefix); best.Key.Peer != "short" {
		t.Fatalf("best = %s, want short", best.Key.Peer)
	}
}

func TestBestPathOrigin(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	aEGP := attrs(1)
	aEGP.Origin = bgp.OriginEGP
	aIGP := attrs(2)
	aIGP.Origin = bgp.OriginIGP
	tbl.Add(PathKey{Prefix: prefix, Peer: "egp"}, 1, aEGP)
	tbl.Add(PathKey{Prefix: prefix, Peer: "igp"}, 2, aIGP)
	if best := tbl.Best(prefix); best.Key.Peer != "igp" {
		t.Fatalf("best = %s, want igp", best.Key.Peer)
	}
}

func TestBestPathMEDSameNeighbor(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	med10, med5 := uint32(10), uint32(5)
	a1 := attrs(7)
	a1.MED = &med10
	a2 := attrs(7)
	a2.MED = &med5
	tbl.Add(PathKey{Prefix: prefix, Peer: "x"}, 7, a1)
	tbl.Add(PathKey{Prefix: prefix, Peer: "y"}, 7, a2)
	if best := tbl.Best(prefix); best.Key.Peer != "y" {
		t.Fatalf("best = %s, want y (lower MED)", best.Key.Peer)
	}
}

func TestBestPathMEDIgnoredAcrossNeighbors(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	medHigh := uint32(1000)
	a1 := attrs(7)
	a1.MED = &medHigh
	a2 := attrs(8)
	tbl.Add(PathKey{Prefix: prefix, Peer: "x"}, 7, a1) // earlier
	tbl.Add(PathKey{Prefix: prefix, Peer: "y"}, 8, a2)
	// Different neighbor AS: MED not compared; oldest (x) wins.
	if best := tbl.Best(prefix); best.Key.Peer != "x" {
		t.Fatalf("best = %s, want x (oldest)", best.Key.Peer)
	}
}

func TestBestNil(t *testing.T) {
	if New().Best(pfx("1.0.0.0/8")) != nil {
		t.Fatal("Best on empty table")
	}
}

func TestRemovePeer(t *testing.T) {
	tbl := New()
	tbl.Add(PathKey{Prefix: pfx("1.0.0.0/8"), Peer: "a"}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: pfx("2.0.0.0/8"), Peer: "a"}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: pfx("2.0.0.0/8"), Peer: "b"}, 2, attrs(2))
	removed := tbl.RemovePeer("a")
	if len(removed) != 2 {
		t.Fatalf("removed %d, want 2", len(removed))
	}
	if tbl.Len() != 1 || tbl.Best(pfx("2.0.0.0/8")).Key.Peer != "b" {
		t.Fatalf("table after RemovePeer: len=%d", tbl.Len())
	}
}

func TestPrefixesSorted(t *testing.T) {
	tbl := New()
	tbl.Add(PathKey{Prefix: pfx("9.0.0.0/8"), Peer: "a"}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: pfx("1.0.0.0/8"), Peer: "a"}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: pfx("1.0.0.0/16"), Peer: "a"}, 1, attrs(1))
	ps := tbl.Prefixes()
	if len(ps) != 3 || ps[0] != pfx("1.0.0.0/8") || ps[1] != pfx("1.0.0.0/16") || ps[2] != pfx("9.0.0.0/8") {
		t.Fatalf("Prefixes: %v", ps)
	}
}

func TestSnapshotDiff(t *testing.T) {
	tbl := New()
	kA := PathKey{Prefix: pfx("1.0.0.0/8"), Peer: "a"}
	kB := PathKey{Prefix: pfx("2.0.0.0/8"), Peer: "b"}
	kC := PathKey{Prefix: pfx("3.0.0.0/8"), Peer: "c"}

	tbl.Add(kA, 1, attrs(1))
	tbl.Add(kB, 2, attrs(2))
	s1 := tbl.Snapshot()

	tbl.Remove(kB)              // removed
	tbl.Add(kC, 3, attrs(3))    // added
	tbl.Add(kA, 1, attrs(1, 9)) // changed (re-announce)
	s2 := tbl.Snapshot()

	d := DiffSnapshots(s1, s2)
	if len(d.Added) != 1 || d.Added[0].Key != kC {
		t.Fatalf("Added: %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0].Key != kB {
		t.Fatalf("Removed: %v", d.Removed)
	}
	if len(d.Changed) != 1 || d.Changed[0].Key != kA {
		t.Fatalf("Changed: %v", d.Changed)
	}
	if d.Empty() {
		t.Fatal("diff should not be empty")
	}
	if !DiffSnapshots(s2, s2).Empty() {
		t.Fatal("self-diff should be empty")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tbl := New()
	k := PathKey{Prefix: pfx("1.0.0.0/8"), Peer: "a"}
	tbl.Add(k, 1, attrs(1))
	s := tbl.Snapshot()
	tbl.Remove(k)
	if _, ok := s[k]; !ok {
		t.Fatal("snapshot affected by later mutation")
	}
}

func TestAttrsIsolation(t *testing.T) {
	tbl := New()
	k := PathKey{Prefix: pfx("1.0.0.0/8"), Peer: "a"}
	a := attrs(1, 2)
	tbl.Add(k, 1, a)
	a.ASPath[0].ASNs[0] = 999 // mutate caller's copy
	if tbl.Best(k.Prefix).Attrs.ASPath[0].ASNs[0] == 999 {
		t.Fatal("table shares attr storage with caller")
	}
}

func TestDiffProperty(t *testing.T) {
	// Property: applying a random series of adds/removes, the diff of
	// (before, after) has |Added| = |after-only keys| and |Removed| =
	// |before-only keys|.
	f := func(ops []uint16) bool {
		tbl := New()
		prefixes := []netip.Prefix{pfx("1.0.0.0/8"), pfx("2.0.0.0/8"), pfx("3.0.0.0/8"), pfx("4.0.0.0/8")}
		peers := []string{"a", "b", "c"}
		apply := func(op uint16) {
			key := PathKey{
				Prefix: prefixes[int(op)%len(prefixes)],
				Peer:   peers[int(op>>2)%len(peers)],
			}
			if op&0x8000 != 0 {
				tbl.Remove(key)
			} else {
				tbl.Add(key, uint32(op), attrs(uint32(op)))
			}
		}
		half := len(ops) / 2
		for _, op := range ops[:half] {
			apply(op)
		}
		before := tbl.Snapshot()
		for _, op := range ops[half:] {
			apply(op)
		}
		after := tbl.Snapshot()
		d := DiffSnapshots(before, after)
		addedWant, removedWant := 0, 0
		for k := range after {
			if _, ok := before[k]; !ok {
				addedWant++
			}
		}
		for k := range before {
			if _, ok := after[k]; !ok {
				removedWant++
			}
		}
		return len(d.Added) == addedWant && len(d.Removed) == removedWant
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	tbl := New()
	a := attrs(64512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i >> 16), byte(i >> 8), byte(i), 0}), 24)
		tbl.Add(PathKey{Prefix: p, Peer: "a"}, 64512, a)
	}
}

func BenchmarkSnapshotDiff(b *testing.B) {
	tbl := New()
	a := attrs(64512)
	for i := 0; i < 1000; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		tbl.Add(PathKey{Prefix: p, Peer: "a"}, 64512, a)
	}
	s1 := tbl.Snapshot()
	tbl.Add(PathKey{Prefix: pfx("200.0.0.0/8"), Peer: "b"}, 1, a)
	s2 := tbl.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffSnapshots(s1, s2)
	}
}

func TestFindByPathID(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.10/32")
	tbl.Add(PathKey{Prefix: prefix, Peer: "a", PathID: 7}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: prefix, Peer: "b", PathID: 9}, 2, attrs(2))
	if p := tbl.FindByPathID(prefix, 7); p == nil || p.Key.Peer != "a" {
		t.Fatalf("FindByPathID(7): %+v", p)
	}
	if p := tbl.FindByPathID(prefix, 9); p == nil || p.Key.Peer != "b" {
		t.Fatalf("FindByPathID(9): %+v", p)
	}
	if p := tbl.FindByPathID(prefix, 99); p != nil {
		t.Fatalf("FindByPathID(99): %+v", p)
	}
	if p := tbl.FindByPathID(pfx("9.9.9.9/32"), 7); p != nil {
		t.Fatalf("unknown prefix: %+v", p)
	}
}

// TestShardCountPowerOfTwo: shardFor masks the prefix hash, so a shard
// count that is not a power of two would leave shards unreachable.
func TestShardCountPowerOfTwo(t *testing.T) {
	if shardCount < 1 || shardCount&(shardCount-1) != 0 {
		t.Fatalf("shardCount = %d is not a power of two", shardCount)
	}
}

func TestAddWithBestTransitions(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	kA := PathKey{Prefix: prefix, Peer: "a"}
	kB := PathKey{Prefix: prefix, Peer: "b"}

	pA, tr := tbl.AddWithBest(kA, 1, attrs(1, 2, 3))
	if tr.Old != nil || tr.New != pA || !tr.Changed() {
		t.Fatalf("first add transition: %+v", tr)
	}
	// Worse path: best unchanged.
	_, tr = tbl.AddWithBest(kB, 2, attrs(9, 8, 7, 6))
	if tr.Changed() || tr.New != pA {
		t.Fatalf("worse add transition: %+v", tr)
	}
	// Better path: best moves.
	pB, tr := tbl.AddWithBest(kB, 2, attrs(9))
	if tr.Old != pA || tr.New != pB {
		t.Fatalf("better add transition: %+v", tr)
	}
	// Replacing the best with a worse path: best falls back to A.
	_, tr = tbl.AddWithBest(kB, 2, attrs(9, 8, 7, 6))
	if tr.Old != pB || tr.New.Key != kA {
		t.Fatalf("demote transition: %+v", tr)
	}
	// Re-announce of the best with equal merit still reports a change
	// (new Seq, new object) — the export path uses this to re-export
	// refreshed attributes.
	pA2, tr := tbl.AddWithBest(kA, 1, attrs(1, 2, 3))
	if !tr.Changed() || tr.New != pA2 {
		t.Fatalf("refresh transition: %+v", tr)
	}
}

func TestRemoveWithBestTransitions(t *testing.T) {
	tbl := New()
	prefix := pfx("100.10.10.0/24")
	kA := PathKey{Prefix: prefix, Peer: "a"}
	kB := PathKey{Prefix: prefix, Peer: "b"}
	pA, _ := tbl.AddWithBest(kA, 1, attrs(1))
	pB, _ := tbl.AddWithBest(kB, 2, attrs(2, 3))

	// Removing the non-best path: no transition.
	ok, tr := tbl.RemoveWithBest(kB)
	if !ok || tr.Changed() || tr.New != pA {
		t.Fatalf("non-best remove: ok=%v tr=%+v", ok, tr)
	}
	tbl.AddWithBest(kB, 2, attrs(2, 3))
	// Removing the best: next best promoted.
	ok, tr = tbl.RemoveWithBest(kA)
	if !ok || tr.Old != pA || tr.New == nil || tr.New.Key != kB {
		t.Fatalf("best remove: ok=%v tr=%+v", ok, tr)
	}
	_ = pB
	// Removing the last path: best vanishes.
	ok, tr = tbl.RemoveWithBest(tr.New.Key)
	if !ok || tr.New != nil {
		t.Fatalf("last remove: ok=%v tr=%+v", ok, tr)
	}
	// Removing from an empty prefix.
	ok, tr = tbl.RemoveWithBest(kA)
	if ok || tr.Changed() {
		t.Fatalf("empty remove: ok=%v tr=%+v", ok, tr)
	}
}

func TestRemovePeerWithBest(t *testing.T) {
	tbl := New()
	p1, p2 := pfx("1.0.0.0/8"), pfx("2.0.0.0/8")
	tbl.Add(PathKey{Prefix: p1, Peer: "a"}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: p2, Peer: "a"}, 1, attrs(1))
	tbl.Add(PathKey{Prefix: p2, Peer: "b"}, 2, attrs(2, 3))
	removed, changes := tbl.RemovePeerWithBest("a")
	if len(removed) != 2 || len(changes) != 2 {
		t.Fatalf("removed=%d changes=%d", len(removed), len(changes))
	}
	// Sorted by prefix: 1/8 vanishes, 2/8 falls back to b.
	if changes[0].Prefix != p1 || changes[0].New != nil {
		t.Fatalf("changes[0]: %+v", changes[0])
	}
	if changes[1].Prefix != p2 || changes[1].New == nil || changes[1].New.Key.Peer != "b" {
		t.Fatalf("changes[1]: %+v", changes[1])
	}
}

// TestConcurrentStress hammers every table operation from parallel
// goroutines across many prefixes (and therefore shards); run with
// -race, it is the sharding's data-race canary. It then verifies the
// surviving table agrees with a sequential replay.
func TestConcurrentStress(t *testing.T) {
	tbl := New()
	const workers = 8
	const opsPerWorker = 2000
	prefixes := make([]netip.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 24)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := string(rune('a' + w%4))
			for i := 0; i < opsPerWorker; i++ {
				p := prefixes[(i*7+w)%len(prefixes)]
				key := PathKey{Prefix: p, Peer: peer, PathID: uint32(w%4 + 1)}
				switch i % 5 {
				case 0, 1:
					tbl.AddWithBest(key, uint32(64512+w), attrs(uint32(64512+w)))
				case 2:
					tbl.RemoveWithBest(key)
				case 3:
					tbl.Best(p)
					tbl.Lookup(p)
				case 4:
					if i%50 == 0 {
						tbl.Snapshot()
						tbl.Len()
					}
					tbl.FindByPathID(p, uint32(w%4+1))
				}
			}
		}(w)
	}
	wg.Wait()

	// Post-condition: every prefix's cached best equals a fresh linear
	// recomputation over its surviving paths.
	for _, p := range prefixes {
		paths := tbl.Lookup(p)
		best := tbl.Best(p)
		if len(paths) == 0 {
			if best != nil {
				t.Fatalf("%s: stale best %v", p, best.Key)
			}
			continue
		}
		if best == nil || best.Key != paths[0].Key {
			t.Fatalf("%s: cached best %v != recomputed %v", p, best, paths[0].Key)
		}
	}
}

// TestConcurrentRemovePeer interleaves peer teardowns with adds: the
// cross-shard sweep must stay consistent with per-shard mutations.
func TestConcurrentRemovePeer(t *testing.T) {
	tbl := New()
	prefixes := make([]netip.Prefix, 32)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 24)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := string(rune('a' + w))
			for i := 0; i < 500; i++ {
				for _, p := range prefixes {
					tbl.Add(PathKey{Prefix: p, Peer: peer}, uint32(w), attrs(uint32(w+1)))
				}
				tbl.RemovePeerWithBest(peer)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range prefixes {
		paths := tbl.Lookup(p)
		best := tbl.Best(p)
		if len(paths) == 0 && best != nil {
			t.Fatalf("%s: stale best after RemovePeer", p)
		}
		if len(paths) > 0 && (best == nil || best.Key != paths[0].Key) {
			t.Fatalf("%s: best cache inconsistent", p)
		}
	}
}
