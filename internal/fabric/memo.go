package fabric

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"stellar/internal/netpkt"
)

// This file is the flow-result memo of one classifier generation: an
// insert-only open-addressed table of immutable entries. Lookups are
// lock-free — one atomic load per probe — so any number of egress
// workers can read while one inserts; inserts and doubling serialize on
// a small mutex. A reader that raced a doubling holds the old table,
// which stays valid (nothing is ever removed or overwritten): it just
// misses what was inserted since and recomputes.

// maxMemoEntries bounds the per-generation flow memo so adversarial
// flow cardinality cannot grow memory without bound.
const maxMemoEntries = 1 << 16

// minMemoSlots is the size of a generation's first table when it has no
// predecessor to size it from; ports that see a handful of flows keep a
// handful of slots.
const minMemoSlots = 8

// memoEntry records one memoized classification; it is never modified
// once published, so generations share entries whose verdict a rule
// change left alone. The full key is copied in, not pointed at: an
// offer's key belongs to its producer, which may rewrite it in place
// between ticks, so the copy is the authority both when a 64-bit hash
// collides (a recomputation, never a wrong verdict) and when the key an
// entry was made from has since changed.
type memoEntry struct {
	hash uint64
	key  netpkt.FlowKey
	rule *Rule // nil: default forwarding queue
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

// flowMemo is the growable memo of one classifier generation.
type flowMemo struct {
	tab atomic.Pointer[memoTable] // nil until the first insert

	mu sync.Mutex
	n  atomic.Int64 // entries in tab; written under mu
	// hint is the entry count of the generation this one follows; the
	// first table is sized to hold it so the cold pass after a rule
	// change does not regrow.
	hint int
}

func (m *flowMemo) len() int { return int(m.n.Load()) }

// insert memoizes rule as the verdict of f. reuse, when non-nil, is an
// inherited entry that already says exactly that and is stored as is;
// otherwise a new entry is allocated. A full memo, a flow another
// goroutine inserted first and a hash collision all leave the memo
// unchanged.
func (m *flowMemo) insert(reuse *memoEntry, f *netpkt.FlowKey, hash uint64, rule *Rule) {
	if m.n.Load() >= maxMemoEntries {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	n := int(m.n.Load())
	if n >= maxMemoEntries {
		return
	}
	if e, collided := t.lookup(f, hash); e != nil || collided {
		return
	}
	switch {
	case t == nil:
		slots := minMemoSlots
		for slots < 2*m.hint {
			slots *= 2
		}
		t = newMemoTable(slots)
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
	if reuse == nil {
		reuse = &memoEntry{hash: hash, key: *f, rule: rule}
	}
	t.place(reuse)
	m.n.Store(int64(n + 1))
}
