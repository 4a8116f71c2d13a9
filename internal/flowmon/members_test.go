package flowmon

import (
	"maps"
	"testing"

	"stellar/internal/netpkt"
)

// countingSet is a member set that counts the questions it is asked,
// per MAC.
type countingSet struct {
	keep  func(netpkt.MAC) bool
	asked map[netpkt.MAC]int
}

func newCountingSet(keep func(netpkt.MAC) bool) *countingSet {
	return &countingSet{keep: keep, asked: make(map[netpkt.MAC]int)}
}

func (s *countingSet) Has(mac netpkt.MAC) bool {
	s.asked[mac]++
	return s.keep(mac)
}

// calls is the number of questions asked so far.
func (s *countingSet) calls() int {
	n := 0
	for _, k := range s.asked {
		n += k
	}
	return n
}

// macList is an immutable member set; with returns a grown copy, the way
// a Join publishes a new member registry.
type macList struct{ macs map[netpkt.MAC]bool }

func (l *macList) Has(mac netpkt.MAC) bool { return l.macs[mac] }

func (l *macList) with(mac netpkt.MAC) *macList {
	next := &macList{macs: maps.Clone(l.macs)}
	if next.macs == nil {
		next.macs = make(map[netpkt.MAC]bool)
	}
	next.macs[mac] = true
	return next
}

// TestPeerCountAsksEachPeerOnce: under an unchanged set, a collector
// asks about each peer id once — a warm bin asks nothing, and a new
// peer is asked about once — and peers under the byte threshold are not
// asked at all.
func TestPeerCountAsksEachPeerOnce(t *testing.T) {
	const peers = 40
	c := NewCollectorShards(1)
	sh := c.Shard(0)
	set := newCountingSet(func(m netpkt.MAC) bool { return m[5]%2 == 0 })
	for bin := 0; bin < 3; bin++ {
		observeBin(sh, bin, peers)
		if got := c.PeerCount(bin, 0, set); got != peers/2 {
			t.Fatalf("bin %d: %d peers, want %d", bin, got, peers/2)
		}
		if got := set.calls(); got != peers {
			t.Fatalf("bin %d: %d questions, want %d (one per peer, once)", bin, got, peers)
		}
	}
	// One more peer: asked about once, the others not again.
	observeBin(sh, 3, peers+1)
	if got := c.PeerCount(3, 0, set); got != peers/2+1 {
		t.Fatalf("bin 3: %d peers, want %d", got, peers/2+1)
	}
	if got, newcomer := set.calls(), retentionKey(peers).SrcMAC; got != peers+1 || set.asked[newcomer] != 1 {
		t.Fatalf("bin 3: %d questions (%d about the new peer), want %d (1)", got, set.asked[newcomer], peers+1)
	}
	// A peer under the threshold is never asked about.
	quiet := newCountingSet(anyMAC.Has)
	if got := c.PeerCount(3, 1e9, quiet); got != 0 || quiet.calls() != 0 {
		t.Fatalf("threshold above every peer: %d peers, %d questions", got, quiet.calls())
	}
}

// TestPeerCountNewSetReasks: a different set value — even one with the
// same answers — re-asks each counted peer exactly once, and going back
// to an earlier value re-asks it too, since only the last value's
// verdicts are kept.
func TestPeerCountNewSetReasks(t *testing.T) {
	const peers = 24
	c := NewCollectorShards(1)
	observeBin(c.Shard(0), 0, peers)
	even := func(m netpkt.MAC) bool { return m[5]%2 == 0 }
	a, b := newCountingSet(even), newCountingSet(even)
	for round, set := range []*countingSet{a, a, b, b, a} {
		if got := c.PeerCount(0, 0, set); got != peers/2 {
			t.Fatalf("round %d: %d peers, want %d", round, got, peers/2)
		}
	}
	for _, tc := range []struct {
		name  string
		set   *countingSet
		times int
	}{{"a", a, 2}, {"b", b, 1}} {
		if len(tc.set.asked) != peers {
			t.Fatalf("set %s asked about %d peers, want %d", tc.name, len(tc.set.asked), peers)
		}
		for mac, n := range tc.set.asked {
			if n != tc.times {
				t.Fatalf("set %s asked about %s %d times, want %d", tc.name, mac, n, tc.times)
			}
		}
	}
}

// TestPeerCountGrowingSetMatchesMapCollector grows a member set by one
// sender per bin, as Joins do, and counts every bin in the peer window
// under the newest set: a verdict kept across a set change would leave
// each new member out.
func TestPeerCountGrowingSetMatchesMapCollector(t *testing.T) {
	const peers, bins = 12, 20
	want, got := NewMapCollector(), NewCollectorShards(1)
	set := &macList{}
	for bin := 0; bin < bins; bin++ {
		for p := 0; p < peers; p++ {
			r := record{Bin: bin, Key: retentionKey(p), Bytes: float64(1000 + bin)}
			want.Observe(r)
			observe(got, r)
		}
		if bin < peers {
			set = set.with(retentionKey(bin).SrcMAC)
		}
		for b := max(0, bin-peerWindow+1); b <= bin; b++ {
			if w, g := want.PeerCount(b, 0, set), got.PeerCount(b, 0, set); w != g {
				t.Fatalf("after bin %d, bin %d: %d members counted, want %d", bin, b, g, w)
			}
		}
	}
}

// TestPeerCountNilCountsEverySource: a nil set counts every source and
// leaves the verdicts of the last set in place.
func TestPeerCountNilCountsEverySource(t *testing.T) {
	const peers = 10
	c := NewCollectorShards(1)
	observeBin(c.Shard(0), 0, peers)
	set := newCountingSet(func(m netpkt.MAC) bool { return m[5] < 3 })
	if got := c.PeerCount(0, 0, set); got != 3 {
		t.Fatalf("under the set: %d peers, want 3", got)
	}
	if got := c.PeerCount(0, 0, nil); got != peers {
		t.Fatalf("nil set: %d peers, want %d", got, peers)
	}
	if got := c.PeerCount(0, 0, set); got != 3 || set.calls() != peers {
		t.Fatalf("back under the set: %d peers after %d questions, want 3 after %d", got, set.calls(), peers)
	}
}
