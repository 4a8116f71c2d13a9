package fabric

import (
	"net/netip"
	"slices"

	"stellar/internal/netpkt"
)

// This file implements the compiled flow classifier behind Port. The
// seed design scanned every installed rule linearly under the port mutex
// for every offered flow — the per-packet slow path Section 4.2.1 holds
// against software Flowspec processing. Instead, InstallRule/RemoveRule
// now compile the rule set into an immutable classifier published via
// atomic.Pointer, so ClassifyHashed and Egress run lock-free while rule
// management stays serialized on the port mutex (copy-on-write).
//
// The compiled form indexes every rule under its most selective
// criterion, exactly once:
//
//   - exact-match hash tables keyed by (proto, dst-port) and
//     (proto, src-port), with proto 0 buckets for any-proto port rules;
//   - per-field binary prefix tries for DstIP and SrcIP (v4 and v6);
//   - a SrcMAC exact-match index;
//   - a short residual list for rules too wildcarded to index
//     (MatchAll, proto-only).
//
// Lookup consults each structure the flow header can reach, re-verifies
// candidates with Match.Matches (indexes are pre-filters, never
// authorities), and keeps the candidate with the lowest install order —
// preserving the first-match-priority semantics of the linear scan.
// Candidate lists are sorted by install order so each list can stop as
// soon as its next priority cannot beat the best match found so far.
//
// In front of the compiled form sits the port's flow memo (memo.go):
// flow-level simulations re-offer the same flows tick after tick, in the
// same order, so after the first tick an egress finds each offer's memo
// entry at the offer's position in the memo's positional cache and
// confirms it with one key compare; an offer whose position holds
// another flow probes a flat open-addressed table keyed by
// netpkt.FlowKey.Hash, as ClassifyHashed always does. The memo belongs to
// the port and outlives its generations; each entry carries the verdict
// of the generation that last classified the flow, stamped with that
// generation's sequence number, so a rule change can never serve a
// stale verdict as current. Nor does it rebuild anything: a generation
// that meets an older stamp derives its own verdict through the last few
// single-rule changes and re-stamps the entry in place, with no
// allocation. An installed rule is appended (lowest priority), so an
// older non-nil verdict stands and a nil one needs one Match.Matches
// against the added rule; a removed rule sends only the flows whose
// verdict it was through the full lookup.
//
// Flows are passed by pointer from the traffic generator to the flow
// monitor: a FlowKey is 64 bytes, an Offer points into its producer's
// flow table, and every lookup reads the key there. Only the memo keeps
// a key past the call, and it keeps a copy (memo.go).

// candidate is one indexed rule plus its install order (lower wins).
type candidate struct {
	rule *Rule
	pri  int
}

// protoPortKey is the exact-match key of the port tables. proto 0 holds
// rules that wildcard the protocol but pin a port.
type protoPortKey struct {
	proto netpkt.IPProto
	port  uint16
}

// trieNode is one bit of a binary prefix trie; rules whose prefix ends
// at this node are candidates for any address routed through it.
type trieNode struct {
	child [2]*trieNode
	cands []candidate
}

// prefixTrie holds one address family pair of tries for one match field;
// a family's root is nil until a rule needs it.
type prefixTrie struct {
	v4, v6 *trieNode
}

func (t *prefixTrie) insert(p trieKey, bits int, c candidate) {
	root := &t.v6
	if p.is4 {
		root = &t.v4
	}
	if *root == nil {
		*root = &trieNode{}
	}
	n := *root
	for i := 0; i < bits; i++ {
		b := (p.addr[i/8] >> (7 - i%8)) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	n.cands = append(n.cands, c)
}

// trieKey is an address in trie form: big-endian bytes plus family. For
// v4 the native 4-byte form occupies the front of addr, so prefix bit
// counts index the real address bits (the 4-in-6 mapped form would put
// 96 zero bits first and collapse every v4 prefix onto one spine).
type trieKey struct {
	addr [16]byte
	is4  bool
}

const noMatch = int(^uint(0) >> 1) // max int: "no rule yet"

// classifier is an immutable compiled view of a port's rule set.
type classifier struct {
	rules      []*Rule // install order (the authoritative priority)
	shapeRules []*Rule // subset with Action == ActionShape, install order

	byProtoDstPort map[protoPortKey][]candidate
	byProtoSrcPort map[protoPortKey][]candidate
	dstTrie        prefixTrie
	srcTrie        prefixTrie
	bySrcMAC       map[netpkt.MAC][]candidate
	residual       []candidate

	// seq numbers the generation; the port assigns it, counting up from
	// one, and a verdict stamped with it is current. verdicts holds this
	// generation's verdict for each rule, in install order, then the nil
	// one.
	seq      uint64
	verdicts []verdict
	// memo is the port's flow memo, and changes the single-rule changes
	// that led to this generation, oldest first, the last one its own:
	// up to maxInheritedChanges of them, and none while the memo held no
	// entry to derive from.
	memo    *flowMemo
	changes []ruleChange
}

// ruleChange is one InstallRule (added) or RemoveRule (removed).
type ruleChange struct {
	rule  *Rule
	added bool
}

// ruleFree is the classifier of a port without rules: it classifies
// every flow to the default queue without touching the memo, and no
// generation derives from it, so every rule-free port shares it.
var ruleFree = new(classifier)

// maxInheritedChanges bounds classifier.changes: a verdict stamped
// further back than this goes through the full lookup.
const maxInheritedChanges = 8

// compile builds the immutable classifier generation seq for rules (in
// install order). Only the indexes some rule uses are built.
func compile(rules []*Rule, seq uint64) *classifier {
	c := &classifier{rules: rules, seq: seq, verdicts: make([]verdict, len(rules)+1)}
	c.verdicts[len(rules)] = verdict{seq: seq} // no rule matches
	for pri, r := range rules {
		c.verdicts[pri] = verdict{seq: seq, rule: r}
		if r.Action == ActionShape {
			c.shapeRules = append(c.shapeRules, r)
		}
		cand := candidate{rule: r, pri: pri}
		m := r.Match
		switch {
		case m.DstPort != AnyPort:
			index(&c.byProtoDstPort, protoPortKey{proto: m.Proto, port: uint16(m.DstPort)}, cand)
		case m.SrcPort != AnyPort:
			index(&c.byProtoSrcPort, protoPortKey{proto: m.Proto, port: uint16(m.SrcPort)}, cand)
		case m.DstIP.IsValid():
			c.dstTrie.insert(trieAddr(m.DstIP.Addr()), m.DstIP.Bits(), cand)
		case m.SrcIP.IsValid():
			c.srcTrie.insert(trieAddr(m.SrcIP.Addr()), m.SrcIP.Bits(), cand)
		case m.SrcMAC != nil:
			index(&c.bySrcMAC, *m.SrcMAC, cand)
		default:
			c.residual = append(c.residual, cand)
		}
	}
	// Candidate lists are appended in install order, so they are already
	// sorted by priority; the early-exit in considerList relies on it.
	return c
}

// index appends cand to the list under k, making the map on first use.
func index[K comparable](m *map[K][]candidate, k K, cand candidate) {
	if *m == nil {
		*m = make(map[K][]candidate)
	}
	(*m)[k] = append((*m)[k], cand)
}

func trieAddr(a netip.Addr) trieKey {
	if a.Is4() {
		var k trieKey
		b4 := a.As4()
		copy(k.addr[:], b4[:])
		k.is4 = true
		return k
	}
	return trieKey{addr: a.As16()}
}

// considerList scans one sorted candidate list, updating (best, bestPri)
// with the first full match that beats the current best. Because the
// list is priority-sorted it stops at the first candidate that cannot
// win.
func considerList(cands []candidate, f *netpkt.FlowKey, best *Rule, bestPri int) (*Rule, int) {
	for _, cd := range cands {
		if cd.pri >= bestPri {
			return best, bestPri
		}
		if cd.rule.Match.Matches(f) {
			return cd.rule, cd.pri
		}
	}
	return best, bestPri
}

// walkTrie descends the trie along addr's bits, feeding every node's
// candidates (covering prefixes, shortest first) to considerList.
func walkTrie(t *prefixTrie, f *netpkt.FlowKey, addr netip.Addr, best *Rule, bestPri int) (*Rule, int) {
	if !addr.IsValid() {
		return best, bestPri
	}
	k := trieAddr(addr)
	n := t.v6
	maxBits := 128
	if k.is4 {
		n = t.v4
		maxBits = 32
	}
	if n == nil {
		return best, bestPri
	}
	for i := 0; ; i++ {
		if len(n.cands) > 0 {
			best, bestPri = considerList(n.cands, f, best, bestPri)
		}
		if i == maxBits {
			return best, bestPri
		}
		bit := (k.addr[i/8] >> (7 - i%8)) & 1
		if n.child[bit] == nil {
			return best, bestPri
		}
		n = n.child[bit]
	}
}

// classify runs the compiled lookup: every index the flow can reach,
// first-match (lowest install order) wins. It returns that rule's
// verdict, or the nil one when no rule matches, and is read-only and
// safe for unlimited concurrency.
func (c *classifier) classify(f *netpkt.FlowKey) *verdict {
	var best *Rule
	bestPri := noMatch
	if len(c.byProtoDstPort) > 0 {
		best, bestPri = considerList(c.byProtoDstPort[protoPortKey{f.Proto, f.DstPort}], f, best, bestPri)
		if f.Proto != 0 {
			best, bestPri = considerList(c.byProtoDstPort[protoPortKey{0, f.DstPort}], f, best, bestPri)
		}
	}
	if len(c.byProtoSrcPort) > 0 {
		best, bestPri = considerList(c.byProtoSrcPort[protoPortKey{f.Proto, f.SrcPort}], f, best, bestPri)
		if f.Proto != 0 {
			best, bestPri = considerList(c.byProtoSrcPort[protoPortKey{0, f.SrcPort}], f, best, bestPri)
		}
	}
	best, bestPri = walkTrie(&c.dstTrie, f, f.Dst, best, bestPri)
	best, bestPri = walkTrie(&c.srcTrie, f, f.Src, best, bestPri)
	if len(c.bySrcMAC) > 0 {
		best, bestPri = considerList(c.bySrcMAC[f.SrcMAC], f, best, bestPri)
	}
	_, bestPri = considerList(c.residual, f, best, bestPri)
	return &c.verdicts[min(bestPri, len(c.rules))]
}

// derive turns v, the verdict of an older generation, into this one's by
// replaying the changes since; ok is false when the changes do not reach
// back to v's generation or v's rule was removed on the way, which only
// the full lookup can replace.
func (c *classifier) derive(v *verdict, f *netpkt.FlowKey) (_ *verdict, ok bool) {
	back := c.seq - v.seq
	if back > uint64(len(c.changes)) {
		return nil, false
	}
	r := v.rule
	for _, ch := range c.changes[len(c.changes)-int(back):] {
		switch {
		case !ch.added:
			if r == ch.rule {
				return nil, false
			}
		case r == nil && ch.rule.Match.Matches(f):
			r = ch.rule
		}
	}
	i := slices.Index(c.rules, r)
	if r == nil {
		i = len(c.rules)
	}
	return &c.verdicts[i], true
}

// classifyHashed is classify with the port's flow memo in front. hash is
// the flow's netpkt.FlowKey.Hash (0: compute here).
func (c *classifier) classifyHashed(f *netpkt.FlowKey, hash uint64) *Rule {
	if len(c.rules) == 0 {
		// Rule-free port (the common case across a large member
		// population): nothing can match, skip the memo entirely.
		return nil
	}
	r, _ := c.classifyEntry(f, hash)
	return r
}

// classifyEntry probes the memo for f and returns f's verdict and the
// entry that holds it, which is nil when the memo has none for f: a
// 64-bit collision, a full memo or a flow another goroutine inserted
// first. hash is as for classifyHashed; c has rules.
func (c *classifier) classifyEntry(f *netpkt.FlowKey, hash uint64) (*Rule, *memoEntry) {
	if hash == 0 {
		hash = f.Hash()
	}
	e, collided := c.memo.tab.Load().lookup(f, hash)
	if collided {
		// 64-bit collision between distinct live flows: recompute
		// without caching.
		return c.classify(f).rule, nil
	}
	if e == nil {
		v := c.classify(f)
		return v.rule, c.memo.insert(f, hash, v)
	}
	return c.resolve(e, f), e
}

// resolve returns this generation's verdict for f from e, f's memo
// entry (e.key equals *f), re-stamping e when it holds an older
// generation's verdict.
func (c *classifier) resolve(e *memoEntry, f *netpkt.FlowKey) *Rule {
	old := e.v.Load()
	if old.seq == c.seq {
		return old.rule
	}
	if old.seq > c.seq {
		// A newer generation got here first (this is a tick that started
		// before the rule change): its verdict is not this generation's,
		// and a newer stamp is never derived backwards or overwritten.
		return c.classify(f).rule
	}
	v, ok := c.derive(old, f)
	if !ok {
		v = c.classify(f)
	}
	e.v.CompareAndSwap(old, v)
	return v.rule
}
