// Package rib implements the route server's Routing Information Base:
// per-peer Adj-RIB-In tables keyed by (prefix, peer, path-id) so that
// ADD-PATH sessions can hold multiple paths per prefix, BGP best-path
// selection, and snapshot diffing — the paper's way of turning BGP
// messages into configuration changes (Section 4.4), kept as the
// differential oracle mitctl.CommunityChannel is tested against (the
// channel itself reconciles only the keys an event touches) and for the
// benchmark's rib.snapshot_us probe.
//
// The table is sharded by prefix hash: every prefix lives in exactly one
// shard, each shard owns its routes map and cached best paths behind its
// own lock, and a single atomic counter issues globally monotonic
// sequence numbers. Mutations on different shards proceed in parallel;
// mutations on the same prefix serialize on its shard, which is what lets
// AddWithBest / RemoveWithBest report an atomically consistent best-path
// transition to the route server's export pipeline.
//
// A prefix keeps its paths in an unordered slice, found by linear scan:
// almost every prefix holds one or two paths, and a slice of one costs a
// pointer where a per-prefix map cost a hash table. The best path is
// cached, and Lookup sorts what it returns.
package rib

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"stellar/internal/bgp"
)

// PathKey uniquely identifies a path within a table.
type PathKey struct {
	Prefix netip.Prefix
	Peer   string // peer identifier (route server uses the member's BGP ID or name)
	PathID uint32 // ADD-PATH identifier; 0 on non-ADD-PATH sessions
}

func (k PathKey) String() string {
	return fmt.Sprintf("%s via %s id=%d", k.Prefix, k.Peer, k.PathID)
}

// Path is one routing table entry.
type Path struct {
	Key    PathKey
	PeerAS uint32
	Attrs  bgp.PathAttrs
	// Seq is a table-assigned monotonic sequence number; it orders
	// arrivals for deterministic tie-breaking and lets diffs detect
	// re-announcements with changed attributes.
	Seq uint64
}

// shardCount trades map sizing against lock contention for a route
// server with hundreds of concurrent peer sessions. It is a power of two:
// shardFor masks the prefix hash with shardCount-1.
const shardCount = 32

// prefixEntry holds every path for one prefix plus the cached best path,
// maintained incrementally so Best is O(1) and a mutation recomputes at
// most one prefix's ordering.
type prefixEntry struct {
	paths []*Path // unordered; a removal clears the vacated slot
	best  *Path
}

// find returns the index of key's path in e.paths, or -1.
func (e *prefixEntry) find(key PathKey) int {
	for i, p := range e.paths {
		if p.Key == key {
			return i
		}
	}
	return -1
}

type shard struct {
	mu     sync.RWMutex
	routes map[netip.Prefix]*prefixEntry
}

// Table is a concurrency-safe, prefix-sharded RIB.
type Table struct {
	shards [shardCount]shard
	seq    atomic.Uint64
}

// New returns an empty table.
func New() *Table {
	t := new(Table)
	for i := range t.shards {
		t.shards[i].routes = make(map[netip.Prefix]*prefixEntry)
	}
	return t
}

func (t *Table) shardFor(p netip.Prefix) *shard {
	a := p.Addr().As16()
	h := uint32(2166136261) // FNV-1a
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return &t.shards[h&(shardCount-1)]
}

// BestChange describes how one mutation moved a prefix's best path. Old
// and New are pointers into the table's immutable path set; Old == New
// (including both nil) means the best path did not change.
type BestChange struct {
	Prefix netip.Prefix
	Old    *Path
	New    *Path
}

// Changed reports whether the mutation altered the best path.
func (c BestChange) Changed() bool { return c.Old != c.New }

// Add installs or replaces the path identified by key. It returns the
// stored (copied) path.
func (t *Table) Add(key PathKey, peerAS uint32, attrs bgp.PathAttrs) *Path {
	p, _ := t.AddWithBest(key, peerAS, attrs)
	return p
}

// AddWithBest installs or replaces the path identified by key and
// reports, atomically with the mutation, how the prefix's best path
// changed.
func (t *Table) AddWithBest(key PathKey, peerAS uint32, attrs bgp.PathAttrs) (*Path, BestChange) {
	sh := t.shardFor(key.Prefix)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := &Path{Key: key, PeerAS: peerAS, Attrs: attrs.Clone(), Seq: t.seq.Add(1)}
	e := sh.routes[key.Prefix]
	if e == nil {
		e = &prefixEntry{paths: make([]*Path, 0, 1)}
		sh.routes[key.Prefix] = e
	}
	old := e.best
	if i := e.find(key); i >= 0 {
		e.paths[i] = p
	} else {
		e.paths = append(e.paths, p)
	}
	switch {
	case old == nil:
		e.best = p
	case old.Key == key:
		// Replaced the best path: its attributes may have worsened.
		e.recomputeBest()
	case better(p, old):
		e.best = p
	}
	return p, BestChange{Prefix: key.Prefix, Old: old, New: e.best}
}

// Remove deletes the path identified by key; it reports whether a path
// was present.
func (t *Table) Remove(key PathKey) bool {
	ok, _ := t.RemoveWithBest(key)
	return ok
}

// RemoveWithBest deletes the path identified by key and reports, when a
// path was present, how the prefix's best path changed.
func (t *Table) RemoveWithBest(key PathKey) (bool, BestChange) {
	sh := t.shardFor(key.Prefix)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.routes[key.Prefix]
	if e == nil {
		return false, BestChange{Prefix: key.Prefix}
	}
	i := e.find(key)
	if i < 0 {
		return false, BestChange{Prefix: key.Prefix, Old: e.best, New: e.best}
	}
	old := e.best
	e.paths = slices.Delete(e.paths, i, i+1) // clears the vacated slot
	if len(e.paths) == 0 {
		delete(sh.routes, key.Prefix)
		return true, BestChange{Prefix: key.Prefix, Old: old}
	}
	if old != nil && old.Key == key {
		e.recomputeBest()
	}
	return true, BestChange{Prefix: key.Prefix, Old: old, New: e.best}
}

func (e *prefixEntry) recomputeBest() {
	var best *Path
	for _, p := range e.paths {
		if best == nil || better(p, best) {
			best = p
		}
	}
	e.best = best
}

// RemovePeer withdraws every path learned from peer (session teardown,
// RFC 4271 §8: implicit withdraw of the whole Adj-RIB-In). It returns the
// removed paths.
func (t *Table) RemovePeer(peer string) []*Path {
	removed, _ := t.RemovePeerWithBest(peer)
	return removed
}

// RemovePeerWithBest withdraws every path learned from peer and
// additionally returns the best-path transition of every affected prefix,
// sorted for determinism.
func (t *Table) RemovePeerWithBest(peer string) ([]*Path, []BestChange) {
	var removed []*Path
	var changes []BestChange
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for prefix, e := range sh.routes {
			old := e.best
			kept := e.paths[:0]
			for _, p := range e.paths {
				if p.Key.Peer == peer {
					removed = append(removed, p)
				} else {
					kept = append(kept, p)
				}
			}
			if len(kept) == len(e.paths) {
				continue
			}
			clear(e.paths[len(kept):]) // no removed path stays reachable
			e.paths = kept
			if len(e.paths) == 0 {
				delete(sh.routes, prefix)
				changes = append(changes, BestChange{Prefix: prefix, Old: old})
				continue
			}
			if old != nil && old.Key.Peer == peer {
				e.recomputeBest()
			}
			changes = append(changes, BestChange{Prefix: prefix, Old: old, New: e.best})
		}
		sh.mu.Unlock()
	}
	sortPaths(removed)
	sort.Slice(changes, func(i, j int) bool { return prefixLess(changes[i].Prefix, changes[j].Prefix) })
	return removed, changes
}

// FindByPathID returns the path for (prefix, pathID) regardless of the
// peer label, or nil. BGP withdrawals on ADD-PATH sessions identify the
// path by its identifier alone (RFC 7911 §3); attribute-less withdraw
// messages cannot name the peer.
func (t *Table) FindByPathID(prefix netip.Prefix, pathID uint32) *Path {
	sh := t.shardFor(prefix)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.routes[prefix]
	if e == nil {
		return nil
	}
	for _, p := range e.paths {
		if p.Key.PathID == pathID {
			return p
		}
	}
	return nil
}

// Lookup returns every path for prefix, ordered best-first.
func (t *Table) Lookup(prefix netip.Prefix) []*Path {
	sh := t.shardFor(prefix)
	sh.mu.RLock()
	e := sh.routes[prefix]
	var out []*Path
	if e != nil {
		out = slices.Clone(e.paths)
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// Best returns the best path for prefix, or nil if none exists. It is an
// O(1) read of the shard's incrementally maintained cache.
func (t *Table) Best(prefix netip.Prefix) *Path {
	sh := t.shardFor(prefix)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.routes[prefix]; e != nil {
		return e.best
	}
	return nil
}

// Prefixes returns every prefix with at least one path, sorted.
func (t *Table) Prefixes() []netip.Prefix {
	var out []netip.Prefix
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for p := range sh.routes {
			out = append(out, p)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return prefixLess(out[i], out[j]) })
	return out
}

// Len returns the total number of paths.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, e := range sh.routes {
			n += len(e.paths)
		}
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot returns a point-in-time copy of the table keyed by PathKey.
type Snapshot map[PathKey]*Path

// Snapshot captures the current table contents. Paths are shared
// (immutable by convention once stored); the map is a copy. Shards are
// snapshotted one at a time, so concurrent mutations on other shards may
// or may not be included — each prefix is internally consistent.
func (t *Table) Snapshot() Snapshot {
	s := make(Snapshot, 64)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, e := range sh.routes {
			for _, p := range e.paths {
				s[p.Key] = p
			}
		}
		sh.mu.RUnlock()
	}
	return s
}

// Diff is the difference between two snapshots.
type Diff struct {
	Added   []*Path // present in new only
	Removed []*Path // present in old only
	Changed []*Path // present in both with different Seq (re-announced)
}

// Empty reports whether the diff contains no changes.
func (d Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Changed) == 0
}

// DiffSnapshots computes new minus old. Results are sorted for
// determinism.
func DiffSnapshots(old, new Snapshot) Diff {
	var d Diff
	for key, np := range new {
		op, ok := old[key]
		switch {
		case !ok:
			d.Added = append(d.Added, np)
		case op.Seq != np.Seq:
			d.Changed = append(d.Changed, np)
		}
	}
	for key, op := range old {
		if _, ok := new[key]; !ok {
			d.Removed = append(d.Removed, op)
		}
	}
	sortPaths(d.Added)
	sortPaths(d.Removed)
	sortPaths(d.Changed)
	return d
}

func prefixLess(a, b netip.Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
}

func sortPaths(ps []*Path) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].Key, ps[j].Key
		if a.Prefix != b.Prefix {
			return prefixLess(a.Prefix, b.Prefix)
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.PathID < b.PathID
	})
}

// better implements BGP decision process ordering (RFC 4271 §9.1.2.2,
// the subset meaningful at a route server): higher LOCAL_PREF, shorter
// AS_PATH, lower ORIGIN, lower MED (only between paths from the same
// neighbor AS), then oldest (lowest Seq), then lowest peer string as the
// final deterministic tie-break.
func better(a, b *Path) bool {
	lpA, lpB := uint32(100), uint32(100)
	if a.Attrs.LocalPref != nil {
		lpA = *a.Attrs.LocalPref
	}
	if b.Attrs.LocalPref != nil {
		lpB = *b.Attrs.LocalPref
	}
	if lpA != lpB {
		return lpA > lpB
	}
	if la, lb := a.Attrs.PathLen(), b.Attrs.PathLen(); la != lb {
		return la < lb
	}
	if a.Attrs.Origin != b.Attrs.Origin {
		return a.Attrs.Origin < b.Attrs.Origin
	}
	if a.PeerAS == b.PeerAS {
		var medA, medB uint32
		if a.Attrs.MED != nil {
			medA = *a.Attrs.MED
		}
		if b.Attrs.MED != nil {
			medB = *b.Attrs.MED
		}
		if medA != medB {
			return medA < medB
		}
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Key.Peer != b.Key.Peer {
		return a.Key.Peer < b.Key.Peer
	}
	return a.Key.PathID < b.Key.PathID
}
