package flowmon

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"stellar/internal/netpkt"
)

// peerWindow is W, the number of newest observed bins that keep
// per-peer byte counters. The one reader of peer detail during a run is
// the engine's fold, which reads a bin's peers once, right after the
// merge horizon reaches it; every other accessor reads the roll-up,
// which every bin keeps. Sixteen bins cover that read with room for a
// pipeline a few ticks deep and leave post-run readers the last 16
// ticks of a run. The hot ring has one slot more than the window, so
// the writer's next bin finds a slot the horizon has already retired;
// it grows only while a horizon lags the writer by more than the
// window.
const peerWindow = 16

// Roll-up keys of the cold tier: a roll-up counter's kind sits above
// its 16-bit port, so sorted by key a bin's UDP source ports come
// first, then its destination ports.
const (
	kindSrc  = 0 << 16 // UDP source port -> bytes
	kindDst  = 1 << 16 // any-proto destination port -> bytes
	kindMask = 1 << 16
)

// store is the collector's per-bin state, in two tiers. The hot tier is
// a ring of reusable bins, indexed by bin modulo its length, that
// counts each record as it arrives: the bin's total, its source- and
// destination-port roll-ups in an array indexed by a dense roll-up id,
// and its per-peer bytes in an array indexed by a dense peer id. A bin
// leaving the peer window is retired into the cold tier: its total and
// one sorted run of (roll-up key, bytes) in a shared arena. Peer detail
// is dropped at that point, and a late record for a cold bin updates
// its roll-up only.
//
// Every accessor except the peer counts reads the roll-up, whichever
// tier holds it, and each roll-up counter is the sum of its records in
// arrival order, as a map per bin would hold, so those results do not
// depend on the tier.
type store struct {
	hot     []hotBin  // bin b at hot[b mod len(hot)]; len(hot) > peerWindow
	cold    []coldBin // sorted by bin
	arena   []rollEntry
	newest  int // highest observed bin, once any is observed
	any     bool
	horizon int // see Collector.SetMergeHorizon

	// ids numbers the packed source MACs densely, in the order the
	// store first sees them; macs is its inverse, indexed by id.
	ids  map[uint64]int32
	macs []netpkt.MAC
	// rolls numbers the roll-up keys (kind | port) densely, in the order
	// the store first counts them; keys is its inverse, indexed by id.
	rolls map[uint32]int32
	keys  []uint32
	// pairIDs numbers the first maxPairs port pairs the store sees;
	// pairs is its inverse, indexed by number.
	pairIDs map[uint64]uint8
	pairs   []portPair
	// pos[i] caches what the record at position i of the previous bin
	// resolved to: its peer id and its port pair's number, packed as
	// pairBits describes, or noPos. Positions count the records observed
	// into one bin, from 0, and restart when a record arrives for
	// another bin than the record before it (posBin); posNext is the
	// next record's position. A port delivers the same flows in the same order tick
	// after tick, so a position whose MAC still equals its peer's and
	// whose ports still equal its pair's skips every map lookup.
	pos     []uint32
	posBin  int
	posNext int

	// set is the member set PeerCount last counted under, and
	// verdicts[id] its answer for peer id (unjudged until PeerCount
	// first counts id under set). Holding set keeps its address from
	// being reused by another set while the verdicts stand.
	set      Members
	verdicts []verdict
}

// A position packs a peer id into its high 24 bits and a port pair's
// number into its low 8, so the cache costs 4 bytes a record however
// many records a bin has. Pair number 255 marks an empty position, so a
// store numbers at most maxPairs pairs; a record whose peer id or pair
// lies past what a position holds resolves through the maps every time.
const (
	pairBits = 8
	noPair   = 1<<pairBits - 1
	maxPairs = noPair
	maxPeers = 1 << (32 - pairBits)
	noPos    = ^uint32(0)
)

// portPair is the roll-up a record's ports count into: a destination
// port, and a source port when the record is UDP. key identifies the
// pair (pairKey); dst and src are its roll-up ids, src -1 for a pair
// that is not UDP.
type portPair struct {
	key      uint64
	dst, src int32
}

// pairKey identifies a record's port pair: its destination port, and
// its source port with a UDP mark when it is UDP (the source port of
// any other protocol is not counted).
func pairKey(k *netpkt.FlowKey) uint64 {
	if k.Proto == netpkt.ProtoUDP {
		return 1<<32 | uint64(k.SrcPort)<<16 | uint64(k.DstPort)
	}
	return uint64(k.DstPort)
}

// verdict is a member set's cached answer for one peer id.
type verdict uint8

const (
	unjudged verdict = iota
	member
	notMember
)

// hotBin is one slot of the hot ring; its arrays keep their capacity
// when the slot passes to a newer bin.
type hotBin struct {
	used  bool
	bin   int
	total float64
	roll  denseBytes // roll-up id -> bytes
	peers denseBytes // peer id -> bytes
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

// peerFloor is the oldest bin whose peer counters are kept: the W
// newest observed bins, but never above the merge horizon, so a bin
// above the horizon — written but not read yet — never loses its peers
// before it is read.
func (st *store) peerFloor() int {
	if st.newest < math.MinInt+peerWindow {
		return math.MinInt
	}
	return min(st.newest-peerWindow+1, st.horizon)
}

// at returns bin's slot of the hot ring, whichever bin holds it.
func (st *store) at(bin int) *hotBin {
	i := bin % len(st.hot)
	if i < 0 {
		i += len(st.hot)
	}
	return &st.hot[i]
}

// hotBin returns bin's hot slot, nil when the hot tier does not hold it.
func (st *store) hotBin(bin int) *hotBin {
	if len(st.hot) == 0 {
		return nil
	}
	if h := st.at(bin); h.used && h.bin == bin {
		return h
	}
	return nil
}

// slot returns the hot bin that counts bin's records, taking a slot for
// a bin not observed before, or nil when the cold tier holds bin. A
// slot still held by a bin below the peer floor is retired here only
// when no merge horizon retired it first (see retire). A taken slot
// sizes its arrays once, to the ids the previous bin saw.
func (st *store) slot(bin int) *hotBin {
	if h := st.hotBin(bin); h != nil {
		return h
	}
	if _, ok := st.findCold(bin); ok {
		return nil
	}
	rolls, peers := 0, 0
	if prev := st.hotBin(st.newest); prev != nil {
		rolls, peers = prev.roll.span(), prev.peers.span()
	}
	if !st.any || bin > st.newest {
		st.newest, st.any = bin, true
	}
	floor := st.peerFloor()
	if bin < floor { // too old for peer detail
		st.insertCold(coldBin{bin: bin, off: len(st.arena)})
		return nil
	}
	st.fit(floor)
	h := st.at(bin)
	if h.used {
		st.compact(h) // below floor: fit keeps [floor, newest] collision-free
	}
	h.used, h.bin = true, bin
	if rolls > len(h.roll.bytes) {
		h.roll.grow(rolls)
	}
	if peers > len(h.peers.bytes) {
		h.peers.grow(peers)
	}
	return h
}

// add counts the record at position i of bin into h, or into bin's cold
// roll-up when h is nil. Callers hold the collector's lock.
func (st *store) add(h *hotBin, bin, i int, key *netpkt.FlowKey, bytes float64) {
	if h == nil {
		st.addCold(bin, key, bytes)
		return
	}
	var peer int32
	var pair portPair
	if p := st.pos[i]; p&noPair != noPair && st.macs[p>>pairBits] == key.SrcMAC && st.pairs[p&noPair].key == pairKey(key) {
		peer, pair = int32(p>>pairBits), st.pairs[p&noPair]
	} else {
		peer, pair, st.pos[i] = st.locate(key)
	}
	h.total += bytes
	h.roll.add(pair.dst, bytes)
	if pair.src >= 0 {
		h.roll.add(pair.src, bytes)
	}
	h.peers.add(peer, bytes)
}

// cursor reserves the positions of the next n records of bin and
// returns the first.
func (st *store) cursor(bin, n int) int {
	if bin != st.posBin {
		st.posBin, st.posNext = bin, 0
	}
	i := st.posNext
	st.posNext += n
	for len(st.pos) < st.posNext {
		st.pos = append(st.pos, noPos)
	}
	return i
}

// locate resolves key's peer id and port pair through the maps and
// returns them with the position that caches both: noPos when the peer
// id or the pair lies past what a position holds.
func (st *store) locate(key *netpkt.FlowKey) (int32, portPair, uint32) {
	peer := st.resolve(key.SrcMAC)
	k := pairKey(key)
	n, ok := st.pairIDs[k]
	if !ok {
		pair := portPair{key: k, dst: st.rollID(kindDst | uint32(key.DstPort)), src: -1}
		if key.Proto == netpkt.ProtoUDP {
			pair.src = st.rollID(kindSrc | uint32(key.SrcPort))
		}
		if len(st.pairs) == maxPairs {
			return peer, pair, noPos
		}
		n = uint8(len(st.pairs))
		st.pairIDs[k] = n
		st.pairs = append(st.pairs, pair)
	}
	if peer >= maxPeers {
		return peer, st.pairs[n], noPos
	}
	return peer, st.pairs[n], uint32(peer)<<pairBits | uint32(n)
}

// resolve returns mac's peer id, giving a MAC the store has not seen
// the next one.
func (st *store) resolve(mac netpkt.MAC) int32 {
	k := mac.Key()
	id, ok := st.ids[k]
	if !ok {
		id = int32(len(st.macs))
		st.ids[k] = id
		st.macs = append(st.macs, mac)
	}
	return id
}

// rollID returns a roll-up key's id, giving a key the store has not
// counted the next one.
func (st *store) rollID(key uint32) int32 {
	id, ok := st.rolls[key]
	if !ok {
		id = int32(len(st.keys))
		st.rolls[key] = id
		st.keys = append(st.keys, key)
	}
	return id
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
	n := max(len(st.hot), peerWindow+1)
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
			*st.at(h.bin) = *h
		}
	}
}

// retire compacts every hot bin below the peer floor, so the slots the
// writer takes next are free before it reaches them.
func (st *store) retire() {
	floor := st.peerFloor()
	for i := range st.hot {
		if h := &st.hot[i]; h.used && h.bin < floor {
			st.compact(h)
		}
	}
}

// compact moves a hot bin's roll-up into the cold tier and frees its
// slot, keeping the slot's array capacity.
func (st *store) compact(h *hotBin) {
	off := len(st.arena)
	h.roll.each(func(id int, bytes float64) {
		st.arena = append(st.arena, rollEntry{st.keys[id], bytes})
	})
	slices.SortFunc(st.arena[off:], byKey)
	st.insertCold(coldBin{bin: h.bin, total: h.total, off: off, n: len(st.arena) - off})
	h.used = false
	h.total = 0
	h.roll.reset()
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

// addCold counts a late record into cold bin's roll-up. A key the run
// already holds is added in place; a new key is inserted in order,
// after the run moves to the end of the arena unless it is there
// already (the old run is left as a hole — this is the late-record
// path).
func (st *store) addCold(bin int, key *netpkt.FlowKey, bytes float64) {
	i, _ := st.findCold(bin)
	c := &st.cold[i]
	c.total += bytes
	st.addRun(c, kindDst|uint32(key.DstPort), bytes)
	if key.Proto == netpkt.ProtoUDP {
		st.addRun(c, kindSrc|uint32(key.SrcPort), bytes)
	}
}

func (st *store) addRun(c *coldBin, key uint32, bytes float64) {
	run := st.arena[c.off : c.off+c.n]
	j, ok := slices.BinarySearchFunc(run, rollEntry{key: key}, byKey)
	if ok {
		run[j].bytes += bytes
		return
	}
	if c.off+c.n != len(st.arena) {
		c.off = len(st.arena)
		st.arena = append(st.arena, run...)
	}
	st.arena = slices.Insert(st.arena, c.off+j, rollEntry{key, bytes})
	c.n++
}

// view is one bin's roll-up, in whichever tier holds it.
type view struct {
	total float64
	hot   *hotBin     // nil for a cold bin
	st    *store      // a hot bin's store, whose ids its roll-up uses
	run   []rollEntry // a cold bin's roll-up
}

func (st *store) view(bin int) (view, bool) {
	if h := st.hotBin(bin); h != nil {
		return view{total: h.total, hot: h, st: st}, true
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
		v.hot.roll.each(func(id int, bytes float64) {
			if key := v.st.keys[id]; key&kindMask == kind {
				fn(uint16(key), bytes)
			}
		})
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
		if id, ok := v.st.rolls[key]; ok && int(id) < len(v.hot.roll.bytes) {
			return v.hot.roll.bytes[id]
		}
		return 0
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
func (st *store) peerCount(bin int, minBytes float64, m Members) int {
	h := st.hotBin(bin)
	if h == nil || bin < st.peerFloor() {
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
