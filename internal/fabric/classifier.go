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
// On top of the compiled form, each classifier generation carries a
// flow-result memo (memo.go): flow-level simulations re-offer the same
// flows tick after tick, so after the first tick a classification is one
// probe of a flat open-addressed table keyed by netpkt.FlowKey.Hash. The
// table belongs to the generation, so a rule change can never serve a
// stale verdict — but it does not cold-start the port either: the new
// generation keeps the nearest ancestor's populated table plus the short
// list of single-rule changes made since, and on a miss derives the
// verdict from the ancestor's. An installed rule is appended (lowest
// priority), so an inherited non-nil verdict stands and a nil one needs
// one Match.Matches against the added rule; a removed rule invalidates
// only the flows whose verdict it was, which take the full lookup.
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

// prefixTrie holds one address family pair of tries for one match field.
type prefixTrie struct {
	v4, v6 *trieNode
}

func (t *prefixTrie) insert(p trieKey, bits int, c candidate) {
	root := t.v6
	if p.is4 {
		root = t.v4
	}
	n := root
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

	memo flowMemo

	// inherit is the populated memo table of the nearest ancestor
	// generation (the table only, never the ancestor classifier, so at
	// most two tables per port are live) and changes the single-rule
	// changes that lead from that ancestor's rule set to this one, oldest
	// first. inherit == nil: this generation starts cold.
	inherit *memoTable
	changes []ruleChange
}

// ruleChange is one InstallRule (added) or RemoveRule (removed).
type ruleChange struct {
	rule  *Rule
	added bool
}

// maxInheritedChanges bounds classifier.changes: a generation further
// than this from a populated table starts cold.
const maxInheritedChanges = 8

// compile builds the immutable classifier for rules (in install order).
func compile(rules []*Rule) *classifier {
	c := &classifier{
		rules:          rules,
		byProtoDstPort: make(map[protoPortKey][]candidate),
		byProtoSrcPort: make(map[protoPortKey][]candidate),
		dstTrie:        prefixTrie{v4: &trieNode{}, v6: &trieNode{}},
		srcTrie:        prefixTrie{v4: &trieNode{}, v6: &trieNode{}},
		bySrcMAC:       make(map[netpkt.MAC][]candidate),
	}
	for pri, r := range rules {
		if r.Action == ActionShape {
			c.shapeRules = append(c.shapeRules, r)
		}
		cand := candidate{rule: r, pri: pri}
		m := r.Match
		switch {
		case m.DstPort != AnyPort:
			k := protoPortKey{proto: m.Proto, port: uint16(m.DstPort)}
			c.byProtoDstPort[k] = append(c.byProtoDstPort[k], cand)
		case m.SrcPort != AnyPort:
			k := protoPortKey{proto: m.Proto, port: uint16(m.SrcPort)}
			c.byProtoSrcPort[k] = append(c.byProtoSrcPort[k], cand)
		case m.DstIP.IsValid():
			c.dstTrie.insert(trieAddr(m.DstIP.Addr()), m.DstIP.Bits(), cand)
		case m.SrcIP.IsValid():
			c.srcTrie.insert(trieAddr(m.SrcIP.Addr()), m.SrcIP.Bits(), cand)
		case m.SrcMAC != nil:
			c.bySrcMAC[*m.SrcMAC] = append(c.bySrcMAC[*m.SrcMAC], cand)
		default:
			c.residual = append(c.residual, cand)
		}
	}
	// Candidate lists are appended in install order, so they are already
	// sorted by priority; the early-exit in considerList relies on it.
	return c
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
// first-match (lowest install order) wins. It is read-only and safe for
// unlimited concurrency.
func (c *classifier) classify(f *netpkt.FlowKey) *Rule {
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
	best, _ = considerList(c.residual, f, best, bestPri)
	return best
}

// succeed links next, the generation that follows c by one rule change,
// to the memo it can inherit from: c's own table when c classified
// anything, otherwise the table c itself inherited, one change further
// away.
func (c *classifier) succeed(next *classifier, ch ruleChange) {
	if len(next.rules) == 0 {
		return // a rule-free port skips the memo
	}
	if t := c.memo.tab.Load(); t != nil {
		next.inherit, next.changes = t, []ruleChange{ch}
		next.memo.hint = c.memo.len()
	} else if c.inherit != nil && len(c.changes) < maxInheritedChanges {
		next.inherit = c.inherit
		next.changes = append(slices.Clip(c.changes), ch)
		next.memo.hint = c.memo.hint
	}
}

// derive turns a verdict memoized by the inherited table into this
// generation's by replaying the changes since; ok is false when the
// verdict was a rule removed on the way, which only the full lookup can
// replace.
func (c *classifier) derive(r *Rule, f *netpkt.FlowKey) (_ *Rule, ok bool) {
	for _, ch := range c.changes {
		switch {
		case !ch.added:
			if r == ch.rule {
				return nil, false
			}
		case r == nil && ch.rule.Match.Matches(f):
			r = ch.rule
		}
	}
	return r, true
}

// classifyHashed is classify with the flow memo in front. hash is the
// flow's netpkt.FlowKey.Hash (0: compute here).
func (c *classifier) classifyHashed(f *netpkt.FlowKey, hash uint64) *Rule {
	if len(c.rules) == 0 {
		// Rule-free port (the common case across a large member
		// population): nothing can match, skip the memo entirely.
		return nil
	}
	if hash == 0 {
		hash = f.Hash()
	}
	e, collided := c.memo.tab.Load().lookup(f, hash)
	if e != nil {
		return e.rule
	}
	if collided {
		// 64-bit collision between distinct live flows: recompute
		// without caching.
		return c.classify(f)
	}
	var (
		r       *Rule
		derived bool
		reuse   *memoEntry
	)
	if a, _ := c.inherit.lookup(f, hash); a != nil {
		if r, derived = c.derive(a.rule, f); derived && r == a.rule {
			reuse = a
		}
	}
	if !derived {
		r = c.classify(f)
	}
	c.memo.insert(reuse, f, hash, r)
	return r
}
