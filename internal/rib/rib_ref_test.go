package rib

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"stellar/internal/bgp"
)

// refTable is the table as it was when every prefix carried a
// map[PathKey]*Path: one unsharded map of map-backed entries. It is the
// reference TestTableMatchesMapReference runs the slice-backed table
// against. It numbers its paths with its own counter, in step with the
// live table's, so the two agree on every Seq.
type refTable struct {
	routes map[netip.Prefix]*refEntry
	seq    uint64
}

type refEntry struct {
	paths map[PathKey]*Path
	best  *Path
}

func (e *refEntry) recomputeBest() {
	e.best = nil
	for _, p := range e.paths {
		if e.best == nil || better(p, e.best) {
			e.best = p
		}
	}
}

func (r *refTable) addWithBest(key PathKey, peerAS uint32, attrs bgp.PathAttrs) BestChange {
	r.seq++
	p := &Path{Key: key, PeerAS: peerAS, Attrs: attrs.Clone(), Seq: r.seq}
	e := r.routes[key.Prefix]
	if e == nil {
		e = &refEntry{paths: make(map[PathKey]*Path)}
		r.routes[key.Prefix] = e
	}
	old := e.best
	e.paths[key] = p
	switch {
	case old == nil:
		e.best = p
	case old.Key == key:
		e.recomputeBest()
	case better(p, old):
		e.best = p
	}
	return BestChange{Prefix: key.Prefix, Old: old, New: e.best}
}

func (r *refTable) removeWithBest(key PathKey) (bool, BestChange) {
	e := r.routes[key.Prefix]
	if e == nil {
		return false, BestChange{Prefix: key.Prefix}
	}
	if _, ok := e.paths[key]; !ok {
		return false, BestChange{Prefix: key.Prefix, Old: e.best, New: e.best}
	}
	old := e.best
	delete(e.paths, key)
	if len(e.paths) == 0 {
		delete(r.routes, key.Prefix)
		return true, BestChange{Prefix: key.Prefix, Old: old}
	}
	if old.Key == key {
		e.recomputeBest()
	}
	return true, BestChange{Prefix: key.Prefix, Old: old, New: e.best}
}

func (r *refTable) removePeerWithBest(peer string) ([]*Path, []BestChange) {
	var removed []*Path
	var changes []BestChange
	for prefix, e := range r.routes {
		old := e.best
		touched := false
		for key, p := range e.paths {
			if key.Peer == peer {
				removed = append(removed, p)
				delete(e.paths, key)
				touched = true
			}
		}
		switch {
		case !touched:
			continue
		case len(e.paths) == 0:
			delete(r.routes, prefix)
			changes = append(changes, BestChange{Prefix: prefix, Old: old})
			continue
		case old.Key.Peer == peer:
			e.recomputeBest()
		}
		changes = append(changes, BestChange{Prefix: prefix, Old: old, New: e.best})
	}
	sortPaths(removed)
	sort.Slice(changes, func(i, j int) bool { return prefixLess(changes[i].Prefix, changes[j].Prefix) })
	return removed, changes
}

// pathID renders a path by identity (key and Seq): the live table and
// the reference hold different *Path values for the same path.
func pathID(p *Path) string {
	if p == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%v seq=%d", p.Key, p.Seq)
}

func pathIDs(ps []*Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = pathID(p)
	}
	return out
}

func changeID(c BestChange) string {
	return fmt.Sprintf("%s: %s -> %s", c.Prefix, pathID(c.Old), pathID(c.New))
}

// TestTableMatchesMapReference runs seeded churn — 1 to 6 paths per
// prefix from three peers with two path IDs each, replacements included
// — through the table and the map-backed reference, and after every step
// requires the same best-path transition and the same Best, Lookup, Len,
// Prefixes and Snapshot.
// No removal may leave a *Path in a prefix slice's spare capacity.
// The prefixes include IPv4-mapped IPv6 twins of IPv4 ones, one with the
// same address bytes and length: the table must keep every one a key of
// its own and hand each back in its own family.
func TestTableMatchesMapReference(t *testing.T) {
	const steps = 6000
	rng := rand.New(rand.NewPCG(7, 11))
	prefixes := []netip.Prefix{
		pfx("100.10.0.0/24"), pfx("100.10.1.0/24"), pfx("100.10.0.7/32"),
		pfx("2001:db8:10::/48"), pfx("2001:db8:11::/48"),
		pfx("::ffff:100.10.0.0/24"), pfx("::ffff:100.10.0.0/120"), pfx("::ffff:100.10.0.7/128"),
	}
	peers := []string{"AS1", "AS2", "AS3"}
	randAttrs := func(peerAS uint32) bgp.PathAttrs {
		path := []uint32{peerAS}
		for n := rng.IntN(3); n > 0; n-- {
			path = append(path, 64999)
		}
		a := attrs(path...)
		a.Origin = bgp.Origin(rng.IntN(3))
		if rng.IntN(3) == 0 {
			lp := uint32(50 + 150*rng.IntN(2))
			a.LocalPref = &lp
		}
		// No MED: compared only between paths of one neighbour AS, it
		// would make better an intransitive order, and the reference's
		// map iteration could then pick a different best.
		return a
	}

	tbl, ref := New(), &refTable{routes: make(map[netip.Prefix]*refEntry)}
	var maxPaths int
	for step := 0; step < steps; step++ {
		prefix := prefixes[rng.IntN(len(prefixes))]
		peerIdx := rng.IntN(len(peers))
		key := PathKey{Prefix: prefix, Peer: peers[peerIdx], PathID: uint32(1 + rng.IntN(2))}
		var op string
		switch r := rng.IntN(20); {
		case r < 12:
			op = "add " + key.String()
			a := randAttrs(uint32(peerIdx + 1))
			p, got := tbl.AddWithBest(key, uint32(peerIdx+1), a)
			want := ref.addWithBest(key, uint32(peerIdx+1), a)
			if p.Seq != ref.seq {
				t.Fatalf("step %d %s: Seq %d, reference %d", step, op, p.Seq, ref.seq)
			}
			if g, w := changeID(got), changeID(want); g != w {
				t.Fatalf("step %d %s: transition\n got  %s\n want %s", step, op, g, w)
			}
		case r < 19:
			op = "remove " + key.String()
			gotOK, got := tbl.RemoveWithBest(key)
			wantOK, want := ref.removeWithBest(key)
			if gotOK != wantOK || changeID(got) != changeID(want) {
				t.Fatalf("step %d %s: (%v, %s), reference (%v, %s)", step, op, gotOK, changeID(got), wantOK, changeID(want))
			}
		default:
			op = "remove peer " + key.Peer
			gotRm, got := tbl.RemovePeerWithBest(key.Peer)
			wantRm, want := ref.removePeerWithBest(key.Peer)
			if g, w := pathIDs(gotRm), pathIDs(wantRm); !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d %s: removed\n got  %v\n want %v", step, op, g, w)
			}
			gc, wc := make([]string, len(got)), make([]string, len(want))
			for i := range got {
				gc[i] = changeID(got[i])
			}
			for i := range want {
				wc[i] = changeID(want[i])
			}
			if !reflect.DeepEqual(gc, wc) {
				t.Fatalf("step %d %s: transitions\n got  %v\n want %v", step, op, gc, wc)
			}
		}

		wantLen := 0
		for _, p := range prefixes {
			e := ref.routes[p]
			var refPaths []*Path
			var refBest *Path
			if e != nil {
				for _, rp := range e.paths {
					refPaths = append(refPaths, rp)
				}
				refBest = e.best
				maxPaths = max(maxPaths, len(e.paths))
			}
			wantLen += len(refPaths)
			sort.Slice(refPaths, func(i, j int) bool { return better(refPaths[i], refPaths[j]) })
			if g, w := pathID(bestOf(tbl, p)), pathID(refBest); g != w {
				t.Fatalf("step %d %s: Best(%s) = %s, reference %s", step, op, p, g, w)
			}
			if g, w := pathIDs(tbl.Lookup(p)), pathIDs(refPaths); !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d %s: Lookup(%s)\n got  %v\n want %v", step, op, p, g, w)
			}
		}
		if got := tbl.Len(); got != wantLen {
			t.Fatalf("step %d %s: Len = %d, reference %d", step, op, got, wantLen)
		}
		var wantPrefixes []netip.Prefix
		for p := range ref.routes {
			wantPrefixes = append(wantPrefixes, p)
		}
		sort.Slice(wantPrefixes, func(i, j int) bool { return prefixLess(wantPrefixes[i], wantPrefixes[j]) })
		if got := tbl.Prefixes(); !reflect.DeepEqual(got, wantPrefixes) {
			t.Fatalf("step %d %s: Prefixes\n got  %v\n want %v", step, op, got, wantPrefixes)
		}
		snap := tbl.Snapshot()
		if len(snap) != wantLen {
			t.Fatalf("step %d %s: Snapshot holds %d paths, reference %d", step, op, len(snap), wantLen)
		}
		for _, e := range ref.routes {
			for k, rp := range e.paths {
				if pathID(snap[k]) != pathID(rp) {
					t.Fatalf("step %d %s: Snapshot[%v] = %s, reference %s", step, op, k, pathID(snap[k]), pathID(rp))
				}
			}
		}
		for i := range tbl.shards {
			for p, e := range tbl.shards[i].routes {
				for _, sp := range e.paths[len(e.paths):cap(e.paths)] {
					if sp != nil {
						t.Fatalf("step %d %s: %s keeps %s in its slice's spare capacity", step, op, p.prefix(), pathID(sp))
					}
				}
			}
		}
	}
	if maxPaths < 5 {
		t.Fatalf("churn reached at most %d paths per prefix, want prefixes with 5-6", maxPaths)
	}
}

// TestTableRetentionPerPath pins what the table retains per path: 10 000
// single-path /24s, measured as the live heap after a forced GC. A prefix
// holding its one path in a per-prefix map cost ~970 B; in a one-element
// slice with netip.Prefix map keys and a 216-byte Path it cost ~370 B;
// with no slice, pointer-free prefixKey map keys and a 208-byte Path it
// costs ~336 B (~344 B under the race detector; Go 1.24, amd64).
func TestTableRetentionPerPath(t *testing.T) {
	const n = 10000
	const maxBytesPerPath = 350
	a := attrs(64512)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := New()
	for i := 0; i < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		tbl.Add(PathKey{Prefix: p, Peer: "AS64512", PathID: 1}, 64512, a)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPath := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(tbl)
	t.Logf("%.0f B retained per single-path prefix", perPath)
	if perPath > maxBytesPerPath {
		t.Fatalf("%.0f B retained per single-path prefix, want <= %d", perPath, maxBytesPerPath)
	}
}

// TestPathSize pins a stored path at 208 bytes on 64-bit platforms, the
// 208-byte size class, and its attributes at 136: bgp.PathAttrs keeps its
// two one-byte fields together, so every standing route is one size
// class smaller than the 224 bytes a 144-byte PathAttrs put it in.
func TestPathSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(bgp.PathAttrs{}); got != 136 {
		t.Fatalf("unsafe.Sizeof(bgp.PathAttrs{}) = %d, want 136", got)
	}
	if got := unsafe.Sizeof(Path{}); got != 208 {
		t.Fatalf("unsafe.Sizeof(Path{}) = %d, want 208", got)
	}
}
