package fabric

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"stellar/internal/netpkt"
)

// This file is the flow memo of one port: an insert-only open-addressed
// table of entries that outlives the port's classifier generations.
// Lookups are lock-free — one atomic load per probe — so any number of
// egress workers can read while one inserts; inserts and doubling
// serialize on a small mutex. A reader that raced a doubling holds the
// old table, which stays valid (no entry is ever removed): it just
// misses what was inserted since and recomputes.
//
// In front of the table sits a positional cache: for each of the first
// maxMemoEntries offer positions of the port's last egress, the key
// pointer that offer carried and the entry it resolved to. Producers
// offer the same flows in the same order tick after tick, and never
// change a key a port may see again (Offer), so an offer that carries
// its position's pointer is that position's flow: it skips the probe,
// and with it the key compare and a random load from the slot array;
// the cache itself is read in order. Anything else — a first sighting,
// a reordered offer, a position pointed at a new key — probes the table
// and re-learns the position. One egress at a time uses the cache; a
// concurrent one probes the table for every offer.

// maxMemoEntries bounds a port's flow memo so adversarial flow
// cardinality cannot grow memory without bound; the first rule change
// on a full memo starts a fresh one.
const maxMemoEntries = 1 << 16

// minMemoSlots is the size of a memo's first table; ports that see a
// handful of flows keep a handful of slots.
const minMemoSlots = 8

// verdict is one classifier generation's answer: generation seq sends
// the flow to rule (nil: default forwarding queue). A generation
// compiles one verdict per rule plus the nil one, so stamping a memo
// entry with its answer allocates nothing.
type verdict struct {
	seq  uint64
	rule *Rule
}

// memoEntry memoizes the classification of one flow. hash and key are
// immutable; v is the verdict of the generation that last classified
// the flow, and a newer generation re-stamps it in place. The full key
// is copied in, not pointed at: an offer's key belongs to its producer,
// which may stop offering it and let it go, so the copy is the
// authority on the hash path, where a 64-bit hash collision is a
// recomputation, never a wrong verdict.
type memoEntry struct {
	hash uint64
	key  netpkt.FlowKey
	v    atomic.Pointer[verdict]
}

// memoTable is one power-of-two array of entry slots, linearly probed
// and kept at most half full.
type memoTable struct {
	slots []atomic.Pointer[memoEntry]
	shift uint // 64 - log2(len(slots))
}

func newMemoTable(slots int) *memoTable {
	return &memoTable{
		slots: make([]atomic.Pointer[memoEntry], slots),
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
	}
}

// home is the first slot probed for hash. FlowKey.Hash is FNV-1a over
// little-endian words, whose low bits ignore the high input bytes (an
// IPv4 address's last octet among them), so the index is taken from the
// top of a Fibonacci multiply instead.
func (t *memoTable) home(hash uint64) int {
	return int((hash * 0x9E3779B97F4A7C15) >> t.shift)
}

// lookup returns f's entry, or nil when the table (which may be nil)
// has none. collided reports that a different flow with the same 64-bit
// hash holds the place f would take.
func (t *memoTable) lookup(f *netpkt.FlowKey, hash uint64) (e *memoEntry, collided bool) {
	if t == nil {
		return nil, false
	}
	mask := len(t.slots) - 1
	for i := t.home(hash); ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil, false
		}
		if e.hash == hash {
			if e.key == *f {
				return e, false
			}
			return nil, true
		}
	}
}

// place stores e in the first free slot of its probe sequence. Callers
// hold the memo mutex and have checked that the flow is absent and the
// table has room.
func (t *memoTable) place(e *memoEntry) {
	mask := len(t.slots) - 1
	for i := t.home(e.hash); ; i = (i + 1) & mask {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(e)
			return
		}
	}
}

// flowMemo is the growable memo of one port.
type flowMemo struct {
	tab atomic.Pointer[memoTable] // nil until the first insert

	mu sync.Mutex
	n  atomic.Int64 // entries in tab; written under mu

	// pos is the positional cache: pos[i] is the key pointer offer i of
	// the last egress carried and the entry it resolved to, or zero
	// where it resolved to none. It holds the producer's pointers and the
	// memo's own entries, so a stale position costs a probe, never a
	// wrong verdict, and a full memo the port drops takes its cache
	// along. An egress holds posMu while it reads and rewrites pos.
	posMu sync.Mutex
	pos   []position
}

// position is one offer position of the cache: src is the key the offer
// pointed at, e its entry. A held src keeps its key alive, so a freed
// key table's address cannot come back under a stale position.
type position struct {
	src *netpkt.FlowKey
	e   *memoEntry
}

func (m *flowMemo) len() int { return int(m.n.Load()) }

// insert memoizes v as the verdict of f and returns the entry it
// placed. A full memo, a flow another goroutine inserted first and a
// hash collision all leave the memo unchanged and return nil.
func (m *flowMemo) insert(f *netpkt.FlowKey, hash uint64, v *verdict) *memoEntry {
	if m.n.Load() >= maxMemoEntries {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	n := int(m.n.Load())
	if n >= maxMemoEntries {
		return nil
	}
	if e, collided := t.lookup(f, hash); e != nil || collided {
		return nil
	}
	switch {
	case t == nil:
		t = newMemoTable(minMemoSlots)
		m.tab.Store(t)
	case 2*(n+1) > len(t.slots):
		grown := newMemoTable(2 * len(t.slots))
		for i := range t.slots {
			if e := t.slots[i].Load(); e != nil {
				grown.place(e)
			}
		}
		t = grown
		m.tab.Store(t)
	}
	e := &memoEntry{hash: hash, key: *f}
	e.v.Store(v)
	t.place(e)
	m.n.Store(int64(n + 1))
	return e
}
