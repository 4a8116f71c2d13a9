package fabric

import (
	"stellar/internal/netpkt"
)

// This file implements the flow classifier behind Port. The seed design
// scanned every installed rule linearly under the port mutex for every
// offered flow — the per-packet slow path Section 4.2.1 holds against
// software Flowspec processing. Instead, InstallRule/RemoveRule publish
// each rule set as an immutable classifier generation through
// atomic.Pointer, so ClassifyHashed and Egress run lock-free while rule
// management stays serialized on the port mutex (copy-on-write), and
// the port's flow memo answers every flow it has classified before.
//
// A generation classifies a flow the memo cannot answer with one
// first-match scan over its rules in install order. The scan is
// bounded: hardware admission caps a port at 16N QoS policies
// (hw.DefaultEdgeRouterLimits; 128 at hw.RTBHUnitN, Section 4.5), and
// it runs only for a flow's first sighting and for its first offer
// after a rule change.
//
// In front of the scan sits the port's flow memo (memo.go): flow-level
// simulations re-offer the same flows tick after tick, in the same
// order, so after the first tick an egress finds each offer's memo
// entry at the offer's position in the memo's positional cache and
// confirms it by the offer's key pointer, without reading the key; an
// offer whose position holds another pointer probes a flat
// open-addressed table keyed by
// netpkt.FlowKey.Hash, as ClassifyHashed always does. The memo belongs to
// the port and outlives its generations; each entry carries the verdict
// of the generation that last classified the flow, stamped with that
// generation's sequence number, so a rule change can never serve a
// stale verdict as current. Nor does it rebuild anything: a rule change
// only publishes the next generation, and a generation that meets an
// older stamp rescans the flow and re-stamps the entry in place with
// one of its own verdicts, with no allocation.
//
// Flows are passed by pointer from the traffic generator to the flow
// monitor: a FlowKey is 64 bytes, an Offer points into its producer's
// flow table, and a probe or scan reads the key there. The memo keeps a
// copy of each key it holds, and its positional cache keeps the key
// pointers of the port's last egress, no longer (memo.go).

// classifier is an immutable generation of a port's rule set.
type classifier struct {
	rules      []*Rule // install order (the authoritative priority)
	shapeRules []*Rule // subset with Action == ActionShape, install order

	// seq numbers the generation; the port assigns it, counting up from
	// one, and a verdict stamped with it is current. verdicts holds this
	// generation's verdict for each rule, in install order, then the nil
	// one.
	seq      uint64
	verdicts []verdict
	// memo is the port's flow memo.
	memo *flowMemo
}

// ruleFree is the classifier of a port without rules: it classifies
// every flow to the default queue without touching the memo, so every
// rule-free port shares it.
var ruleFree = new(classifier)

// compile builds the immutable classifier generation seq for rules (in
// install order).
func compile(rules []*Rule, seq uint64) *classifier {
	c := &classifier{rules: rules, seq: seq, verdicts: make([]verdict, len(rules)+1)}
	c.verdicts[len(rules)] = verdict{seq: seq} // no rule matches
	for pri, r := range rules {
		c.verdicts[pri] = verdict{seq: seq, rule: r}
		if r.Action == ActionShape {
			c.shapeRules = append(c.shapeRules, r)
		}
	}
	return c
}

// classify runs the first-match scan: it returns the verdict of the
// first rule, in install order, that matches f, or the nil one when no
// rule does. It is read-only and safe for unlimited concurrency.
func (c *classifier) classify(f *netpkt.FlowKey) *verdict {
	for i, r := range c.rules {
		if r.Match.Matches(f) {
			return &c.verdicts[i]
		}
	}
	return &c.verdicts[len(c.rules)]
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
// entry (e.key equals *f), rescanning f and re-stamping e when it holds
// an older generation's verdict.
func (c *classifier) resolve(e *memoEntry, f *netpkt.FlowKey) *Rule {
	old := e.v.Load()
	if old.seq == c.seq {
		return old.rule
	}
	if old.seq > c.seq {
		// A newer generation got here first (this is a tick that started
		// before the rule change): its verdict is not this generation's,
		// and a newer stamp is never overwritten.
		return c.classify(f).rule
	}
	v := c.classify(f)
	e.v.CompareAndSwap(old, v)
	return v.rule
}
