package flowmon

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"stellar/internal/netpkt"
)

// peerWindow is W, the number of newest merged bins that keep per-peer
// byte counters. The one reader of peer detail during a run is the
// engine's fold, which reads a bin's peers once, right after the merge
// horizon reaches it; every other accessor reads the roll-up, which
// every bin keeps. Sixteen bins cover that read with room for the
// shard ring (ringBins) and a pipeline a few ticks deep without the
// window ever growing, and leave post-run readers the last 16 ticks of
// a run, while a collector holds at most 16 peer arrays however long
// it runs. It must be a power of two (the hot ring masks by it).
const peerWindow = 16

// Roll-up keys: a roll-up counter's kind sits above its 16-bit port, so
// sorted by key a bin's UDP source ports come first, then its
// destination ports.
const (
	kindSrc  = 0 << 16 // UDP source port -> bytes
	kindDst  = 1 << 16 // any-proto destination port -> bytes
	kindMask = 1 << 16
)

// store is the collector's long-term per-bin state, in two tiers behind
// addFrom. The hot tier is a ring of reusable bins, indexed by bin
// modulo its length, that keeps the newest bins' roll-ups in counter
// tables and their per-peer counters in arrays indexed by peer id. A
// bin leaving the ring is compacted into the cold tier: its total and
// one sorted run of (roll-up key, bytes) in a shared arena. Peer detail is dropped at that point, and a late
// record for a cold bin updates its roll-up only.
//
// Every accessor except the peer counts reads the roll-up, whichever
// tier holds it, and each roll-up counter is the sum of the same flushes
// in the same order as a map per bin would hold, so those results do
// not depend on the tier.
type store struct {
	hot    []hotBin  // bin b at hot[b&(len(hot)-1)]; len a power of two >= peerWindow
	cold   []coldBin // sorted by bin
	arena  []rollEntry
	newest int // highest merged bin, once any is merged
	any    bool
	macs   []netpkt.MAC // peer id -> MAC, set by each flush

	// set is the member set PeerCount last counted under, and
	// verdicts[id] its answer for peer id (unjudged until PeerCount
	// first counts id under set). Holding set keeps its address from
	// being reused by another set while the verdicts stand.
	set      Members
	verdicts []verdict
}

// verdict is a member set's cached answer for one peer id.
type verdict uint8

const (
	unjudged verdict = iota
	member
	notMember
)

// hotBin is one slot of the hot ring; its tables and arrays keep their
// capacity when the slot passes to a newer bin.
type hotBin struct {
	used  bool
	bin   int
	total float64
	ports counterTable // roll-up key -> bytes
	peers peerBytes    // peer id -> bytes
}

// coldBin is a compacted bin: its roll-up is arena[off : off+n], sorted
// by key.
type coldBin struct {
	bin    int
	total  float64
	off, n int
}

type rollEntry struct {
	key   uint32
	bytes float64
}

func byKey(a, b rollEntry) int { return cmp.Compare(a.key, b.key) }

// peerFloor is the oldest bin whose peer counters are kept: W bins back
// from the newest merged bin or, while a merge horizon holds reads back
// below it, from the horizon, so a bin above the horizon — written but
// not read yet — never loses its peers before it is read.
func (st *store) peerFloor(horizon int64) int {
	top := st.newest
	if horizon < int64(top) {
		top = int(horizon)
	}
	if top < math.MinInt+peerWindow {
		return math.MinInt
	}
	return top - peerWindow + 1
}

// addFrom folds a shard bin into the store: into its hot slot, into its
// cold roll-up, or — for a bin not merged before — into a hot slot
// taken from the oldest bin, which is compacted first. Work here is per
// distinct key per flush, not per record; the steady state allocates
// only the amortized growth of the cold tier.
func (st *store) addFrom(b *shardBin, horizon int64) {
	if h := st.hotBin(b.bin); h != nil {
		h.add(b)
		return
	}
	if i, ok := st.findCold(b.bin); ok {
		st.addCold(i, b)
		return
	}
	if !st.any || b.bin > st.newest {
		st.newest, st.any = b.bin, true
	}
	floor := st.peerFloor(horizon)
	if b.bin < floor { // too old for peer detail
		st.addCold(st.insertCold(coldBin{bin: b.bin, off: len(st.arena)}), b)
		return
	}
	st.fit(floor)
	h := &st.hot[b.bin&(len(st.hot)-1)]
	if h.used {
		st.compact(h) // below floor: fit keeps [floor, newest] collision-free
	}
	h.used, h.bin = true, b.bin
	h.add(b)
}

// hotBin returns bin's hot slot, nil when the hot tier does not hold it.
func (st *store) hotBin(bin int) *hotBin {
	if len(st.hot) == 0 {
		return nil
	}
	if h := &st.hot[bin&(len(st.hot)-1)]; h.used && h.bin == bin {
		return h
	}
	return nil
}

// fit grows the hot ring until every bin in [floor, newest] has a slot
// of its own. Without a lagging horizon the span is peerWindow and the
// ring never grows past its first allocation; a horizon held back grows
// it to cover the bins above the horizon, and bins leaving the span on
// the way are compacted.
func (st *store) fit(floor int) {
	span := st.newest - floor + 1
	if span <= len(st.hot) {
		return
	}
	n := max(len(st.hot), peerWindow)
	for n < span {
		n *= 2
	}
	old := st.hot
	st.hot = make([]hotBin, n)
	for i := range old {
		switch h := &old[i]; {
		case !h.used:
		case h.bin < floor:
			st.compact(h)
		default:
			st.hot[h.bin&(n-1)] = *h
		}
	}
}

func (h *hotBin) add(b *shardBin) {
	h.total += b.total
	b.eachRollup(h.ports.add)
	h.peers.addFrom(&b.peers)
}

// eachRollup calls fn for each of the shard bin's roll-up counters,
// keyed as in the store.
func (b *shardBin) eachRollup(fn func(key uint64, bytes float64)) {
	for i := range b.dstPort.entries {
		if e := &b.dstPort.entries[i]; e.used() {
			fn(kindDst|e.key(), e.val)
		}
	}
	for i := range b.srcPort.entries {
		if e := &b.srcPort.entries[i]; e.used() {
			fn(kindSrc|e.key(), e.val)
		}
	}
}

// compact moves a hot bin's roll-up into the cold tier and frees its
// slot, keeping the slot's table capacity.
func (st *store) compact(h *hotBin) {
	off := len(st.arena)
	for i := range h.ports.entries {
		if e := &h.ports.entries[i]; e.used() {
			st.arena = append(st.arena, rollEntry{uint32(e.key()), e.val})
		}
	}
	slices.SortFunc(st.arena[off:], byKey)
	st.insertCold(coldBin{bin: h.bin, total: h.total, off: off, n: len(st.arena) - off})
	h.used = false
	h.total = 0
	h.ports.reset()
	h.peers.reset()
}

// findCold returns bin's index in the cold tier. Bins arrive mostly in
// order, so a bin past the last cold one skips the search.
func (st *store) findCold(bin int) (int, bool) {
	if n := len(st.cold); n == 0 || bin > st.cold[n-1].bin {
		return n, false
	}
	return slices.BinarySearchFunc(st.cold, bin, func(c coldBin, bin int) int { return cmp.Compare(c.bin, bin) })
}

// insertCold adds a bin the cold tier does not hold and returns its
// index.
func (st *store) insertCold(c coldBin) int {
	i, _ := st.findCold(c.bin)
	st.cold = slices.Insert(st.cold, i, c)
	return i
}

// addCold folds a shard bin into cold bin i's roll-up. A key the run
// already holds is added in place; new keys move the run, merged and
// re-sorted, to the end of the arena (the old run is left as a hole —
// this is the late-record path).
func (st *store) addCold(i int, b *shardBin) {
	c := &st.cold[i]
	c.total += b.total
	var add []rollEntry
	b.eachRollup(func(key uint64, bytes float64) { add = append(add, rollEntry{uint32(key), bytes}) })
	run := st.arena[c.off : c.off+c.n]
	fresh := add[:0] // keys the run lacks, compacted in place
	for _, e := range add {
		if j, ok := slices.BinarySearchFunc(run, e, byKey); ok {
			run[j].bytes += e.bytes
		} else {
			fresh = append(fresh, e)
		}
	}
	if len(fresh) == 0 {
		return
	}
	off := len(st.arena)
	st.arena = append(append(st.arena, run...), fresh...)
	slices.SortFunc(st.arena[off:], byKey)
	c.off, c.n = off, len(st.arena)-off
}

// view is one bin's roll-up, in whichever tier holds it.
type view struct {
	total float64
	hot   *counterTable // a hot bin's roll-up, nil for a cold bin
	run   []rollEntry   // a cold bin's roll-up
}

func (st *store) view(bin int) (view, bool) {
	if h := st.hotBin(bin); h != nil {
		return view{total: h.total, hot: &h.ports}, true
	}
	if i, ok := st.findCold(bin); ok {
		c := &st.cold[i]
		return view{total: c.total, run: st.arena[c.off : c.off+c.n]}, true
	}
	return view{}, false
}

// each calls fn for every roll-up counter of one kind.
func (v *view) each(kind uint32, fn func(port uint16, bytes float64)) {
	if v.hot != nil {
		for i := range v.hot.entries {
			if e := &v.hot.entries[i]; e.used() && uint32(e.key())&kindMask == kind {
				fn(uint16(e.key()), e.val)
			}
		}
		return
	}
	for _, e := range v.run {
		if e.key&kindMask == kind {
			fn(uint16(e.key), e.bytes)
		}
	}
}

// get returns one roll-up counter, 0 when absent.
func (v *view) get(key uint32) float64 {
	if v.hot != nil {
		return v.hot.get(uint64(key))
	}
	if i, ok := slices.BinarySearchFunc(v.run, rollEntry{key: key}, byKey); ok {
		return v.run[i].bytes
	}
	return 0
}

func (st *store) binsSorted() []int {
	out := make([]int, 0, len(st.cold)+len(st.hot))
	for i := range st.cold {
		out = append(out, st.cold[i].bin)
	}
	for i := range st.hot {
		if st.hot[i].used {
			out = append(out, st.hot[i].bin)
		}
	}
	slices.Sort(out)
	return out
}

func (st *store) totalBytes(bin int) float64 {
	v, _ := st.view(bin)
	return v.total
}

// shares returns each roll-up counter of one kind as a share of the
// bin's bytes.
func (st *store) shares(bin int, kind uint32) map[uint16]float64 {
	out := make(map[uint16]float64)
	if v, ok := st.view(bin); ok && v.total != 0 {
		v.each(kind, func(port uint16, bytes float64) { out[port] = bytes / v.total })
	}
	return out
}

func (st *store) srcPortBytes(bin int, port uint16) float64 {
	v, _ := st.view(bin)
	return v.get(kindSrc | uint32(port))
}

// peerCount counts the bin's source MACs in m (every one for a nil m)
// whose bytes exceed minBytes; a bin below the peer floor counts 0.
func (st *store) peerCount(bin int, minBytes float64, m Members, horizon int64) int {
	h := st.hotBin(bin)
	if h == nil || bin < st.peerFloor(horizon) {
		return 0
	}
	if m != nil && m != st.set {
		st.set = m
		clear(st.verdicts)
	}
	n := 0
	for w, word := range h.peers.seen {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			if h.peers.bytes[id] > minBytes && (m == nil || st.isMember(id)) {
				n++
			}
		}
	}
	return n
}

// isMember reports whether st.set holds peer id's MAC, asking the set
// only for an id it has not judged yet.
func (st *store) isMember(id int) bool {
	if id >= len(st.verdicts) {
		st.verdicts = append(st.verdicts, make([]verdict, len(st.macs)-len(st.verdicts))...)
	}
	v := st.verdicts[id]
	if v == unjudged {
		v = notMember
		if st.set.Has(st.macs[id]) {
			v = member
		}
		st.verdicts[id] = v
	}
	return v == member
}

func (st *store) topSrcPorts(k int) []PortRank {
	agg := make(map[uint16]float64)
	var total float64
	// Sum bins in ascending order: float accumulation order is part of
	// the determinism contract (two identically fed collectors must
	// rank identically down to the last ulp).
	for _, bin := range st.binsSorted() {
		v, _ := st.view(bin)
		v.each(kindSrc, func(port uint16, bytes float64) { agg[port] += bytes })
		total += v.total
	}
	return rankPorts(agg, total, k)
}
