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
// management stays serialized on the port mutex (copy-on-write).
//
// A generation classifies a flow with one first-match scan over its
// rules in install order. The scan is bounded: hardware admission caps
// a port at 16N QoS policies (hw.DefaultEdgeRouterLimits; 128 at
// hw.RTBHUnitN, Section 4.5).
//
// An egress runs the scan only where the port's per-position verdicts
// (positions, port.go) cannot answer. Flow-level simulations re-offer
// the same flows tick after tick, in the same order, so after the first
// tick each offer finds, at its own position, the key pointer it carried
// last tick and the verdict it got, stamped with the generation's
// sequence number; a stamp equal to the current generation's is served
// without reading the key. A first sighting, a reordered offer, a
// position pointed at a new key and the first offer after a rule change
// are scanned, and the position rewritten. A rule change rebuilds
// nothing: it publishes the next generation, whose number no position
// carries yet, and allocates one verdict per rule.
//
// The worst case is a producer whose offer order never repeats, on a
// port at the rule cap with its traffic matching the last rule: every
// offer scans all 128 rules, about 0.5 µs per flow on a 2-vCPU host
// against about 8 ns in order (BenchmarkEgressTickReordered and
// BenchmarkEgressTick at flows=13500/rules=128). The first tick after a
// rule change scans every offer as well.
//
// Flows are passed by pointer from the traffic generator to the flow
// monitor: a FlowKey is 64 bytes, an Offer points into its producer's
// flow table, and a scan reads the key there. The positions keep the key
// pointers of the port's last egress with rules, no longer, and no copy
// of a key.

// verdict is one classifier generation's answer: generation seq sends
// the flow to rule (nil: default forwarding queue). A generation
// compiles one verdict per rule plus the nil one, so stamping a
// position with its answer allocates nothing.
type verdict struct {
	seq  uint64
	rule *Rule
}

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
	// pos is the port's per-position verdicts; nil for a rule-free
	// generation.
	pos *positions
}

// ruleFree is the classifier of a port without rules: it classifies
// every flow to the default queue and has no positions, so every
// rule-free port shares it.
var ruleFree = compile(nil, 0)

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
