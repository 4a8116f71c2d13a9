package fabric

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"stellar/internal/netpkt"
)

// Offer is a flow-level traffic aggregate presented to a port's egress
// engine for one simulation tick.
type Offer struct {
	Flow    netpkt.FlowKey
	Bytes   float64
	Packets float64
	// FlowHash optionally carries Flow.Hash() computed once by the
	// traffic generator, so the egress hot loop classifies repeated
	// flows from the per-classifier memo with zero re-hashing. 0 means
	// "not computed"; the engine hashes on demand.
	FlowHash uint64
}

// TickResult summarizes one egress tick on a port as byte totals per
// queue outcome. Per-flow deliveries are not part of it: they stream into
// the tick's FlowVisitor.
type TickResult struct {
	// DeliveredBytes went out the member port.
	DeliveredBytes float64
	// RuleDroppedBytes were steered to the zero-length dropping queue.
	RuleDroppedBytes float64
	// ShaperDroppedBytes exceeded a shaping queue's rate.
	ShaperDroppedBytes float64
	// CongestionDroppedBytes exceeded the port capacity in the forward
	// queue (tail drop).
	CongestionDroppedBytes float64
}

// FlowVisitor receives one delivered flow during an egress tick:
// the flow key, its precomputed FlowKey.Hash (0 when the offer carried
// none) and the bytes that made it out the port. It is called once per
// forward-queue entry, in queue order (unmatched and forward-rule offers
// in offer order, then each shaping queue's residue), so a flow offered
// twice is visited twice. The flow monitor's shards sit behind it; a
// caller that wants a per-flow map sums into one here.
type FlowVisitor func(flow netpkt.FlowKey, flowHash uint64, deliveredBytes float64)

// OfferedBytes returns the total bytes presented this tick.
func (t TickResult) OfferedBytes() float64 {
	return t.DeliveredBytes + t.RuleDroppedBytes + t.ShaperDroppedBytes + t.CongestionDroppedBytes
}

// Port is one member-facing IXP port with an egress QoS engine.
//
// Rule management (InstallRule/RemoveRule) is serialized on an internal
// mutex and recompiles the rule set into an immutable classifier
// published through an atomic pointer (see classifier.go). The data
// path — Classify and Egress — reads the current classifier lock-free,
// so any number of goroutines can classify traffic while rules churn.
type Port struct {
	// Name identifies the port ("AS64512" in the harness).
	Name string
	// MAC is the member router's address on the peering LAN.
	MAC netpkt.MAC
	// CapacityBps is the member port speed (e.g. 1e9 for 1 Gbps).
	CapacityBps float64

	mu    sync.Mutex // serializes rule mutations only
	rules []*Rule    // authoritative install order; copied on write
	cls   atomic.Pointer[classifier]
}

// Errors from rule management.
var (
	ErrDuplicateRule = errors.New("fabric: duplicate rule ID on port")
	ErrNoSuchRule    = errors.New("fabric: no such rule")
)

// NewPort creates a port.
func NewPort(name string, mac netpkt.MAC, capacityBps float64) *Port {
	p := &Port{Name: name, MAC: mac, CapacityBps: capacityBps}
	p.cls.Store(compile(nil))
	return p
}

// InstallRule appends a rule to the port's classification order and
// recompiles the classifier.
func (p *Port) InstallRule(r *Rule) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ex := range p.rules {
		if ex.ID == r.ID {
			return ErrDuplicateRule
		}
	}
	if r.Action == ActionShape {
		// Token bucket: burst of one second at the shaping rate.
		r.tok.Lock()
		r.burstBits = r.ShapeRateBps
		r.tokens = r.burstBits
		r.tok.Unlock()
	}
	rules := make([]*Rule, 0, len(p.rules)+1)
	rules = append(rules, p.rules...)
	rules = append(rules, r)
	p.publish(rules, ruleChange{rule: r, added: true})
	return nil
}

// RemoveRule uninstalls the rule with the given ID and recompiles the
// classifier.
func (p *Port) RemoveRule(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if r.ID == id {
			rules := make([]*Rule, 0, len(p.rules)-1)
			rules = append(rules, p.rules[:i]...)
			rules = append(rules, p.rules[i+1:]...)
			p.publish(rules, ruleChange{rule: r})
			return nil
		}
	}
	return ErrNoSuchRule
}

// publish compiles rules, which differ from the current set by ch, and
// makes the result the port's classifier. Callers hold p.mu.
func (p *Port) publish(rules []*Rule, ch ruleChange) {
	next := compile(rules)
	p.cls.Load().succeed(next, ch)
	p.rules = rules
	p.cls.Store(next)
}

// Rule returns the installed rule with the given ID.
func (p *Port) Rule(id string) (*Rule, error) {
	for _, r := range p.cls.Load().rules {
		if r.ID == id {
			return r, nil
		}
	}
	return nil, ErrNoSuchRule
}

// Rules returns a defensive copy of the installed rules in evaluation
// order. Mutating the returned slice never affects the port; the *Rule
// pointers are shared so telemetry counters stay live.
func (p *Port) Rules() []*Rule {
	return append([]*Rule(nil), p.cls.Load().rules...)
}

// RuleCount returns the number of installed rules.
func (p *Port) RuleCount() int {
	return len(p.cls.Load().rules)
}

// Classify returns the first matching rule for the flow, or nil for the
// default forwarding queue. It is lock-free and safe to call
// concurrently with rule management and egress ticks.
func (p *Port) Classify(f netpkt.FlowKey) *Rule {
	return p.cls.Load().classifyHashed(&f, 0)
}

// ClassifyHashed is Classify with the flow's precomputed
// netpkt.FlowKey.Hash (0: computed on demand).
func (p *Port) ClassifyHashed(f netpkt.FlowKey, hash uint64) *Rule {
	return p.cls.Load().classifyHashed(&f, hash)
}

// Egress processes one tick of dtSeconds on the port: classifies every
// offer, applies drop and shaping queues, then subjects the forward
// queue to the port capacity with proportional (fair) tail drop under
// congestion — the behaviour a congested member port exhibits in
// Section 2.2's attack scenario.
//
// The classification loop runs against one immutable classifier
// snapshot: rules installed concurrently take effect the next tick, and
// no lock is held while offers are processed. Every delivered flow
// streams into visit; a nil visit skips monitoring and leaves the byte
// totals.
func (p *Port) Egress(offers []Offer, dtSeconds float64, visit FlowVisitor) TickResult {
	res, _ := p.egress(offers, 1, dtSeconds, visit)
	return res
}

// fwd is one entry of a forward or shaping queue: the offer, in the
// caller's slice, and how many of its bytes got this far.
type fwd struct {
	o     *Offer
	bytes float64
}

// fwdPool recycles the per-tick forward-queue scratch across egress
// calls, so a steady-state tick allocates no per-port buffers.
var fwdPool = sync.Pool{New: func() any { return new([]fwd) }}

// matchRun accumulates the counters of consecutive offers that hit the
// same rule, so a run costs one set of atomic adds instead of one per
// offer. Each offer still contributes int64(bytes), exactly as a
// per-offer add would.
type matchRun struct {
	rule                               *Rule
	packets, bytes, dropped, forwarded int64
}

func (m *matchRun) flush() {
	if m.rule == nil {
		return
	}
	c := &m.rule.counters
	c.MatchedPackets.Add(m.packets)
	c.MatchedBytes.Add(m.bytes)
	if m.dropped != 0 {
		c.DroppedBytes.Add(m.dropped)
	}
	if m.forwarded != 0 {
		c.ForwardedBytes.Add(m.forwarded)
	}
	*m = matchRun{}
}

// egress is one tick of the port. Every offer's bytes and packets are
// multiplied by scale (the platform core's admission share; 1 when the
// core is not the bottleneck) as they are read, so the caller's slice is
// never copied. offered is the unscaled byte sum of offers.
func (p *Port) egress(offers []Offer, scale, dtSeconds float64, visit FlowVisitor) (res TickResult, offered float64) {
	cls := p.cls.Load()

	scratch := fwdPool.Get().(*[]fwd)
	forward := (*scratch)[:0]
	var forwardBytes float64

	// Refill shaping buckets for this tick.
	for _, r := range cls.shapeRules {
		r.refill(dtSeconds)
	}

	// Group shape offers per rule so concurrent flows share the rule's
	// rate limit proportionally (they share one shaping queue). The map
	// is created lazily: ports without shape matches skip it entirely.
	type shapeGroup struct {
		rule   *Rule
		offers []fwd
		total  float64
	}
	var shapeGroups map[string]*shapeGroup

	var run matchRun
	for i := range offers {
		o := &offers[i]
		offered += o.Bytes
		bytes := o.Bytes * scale
		r := cls.classifyHashed(&o.Flow, o.FlowHash)
		if r == nil {
			forward = append(forward, fwd{o, bytes})
			forwardBytes += bytes
			continue
		}
		if r != run.rule {
			run.flush()
			run.rule = r
		}
		run.packets += int64(o.Packets * scale)
		run.bytes += int64(bytes)
		switch r.Action {
		case ActionDrop:
			run.dropped += int64(bytes)
			res.RuleDroppedBytes += bytes
		case ActionShape:
			if shapeGroups == nil {
				shapeGroups = make(map[string]*shapeGroup)
			}
			g := shapeGroups[r.ID]
			if g == nil {
				g = &shapeGroup{rule: r}
				shapeGroups[r.ID] = g
			}
			g.offers = append(g.offers, fwd{o, bytes})
			g.total += bytes
		default: // explicit forward rule
			run.forwarded += int64(bytes)
			forward = append(forward, fwd{o, bytes})
			forwardBytes += bytes
		}
	}
	run.flush()

	// Shaping queues: pass up to the available tokens, proportionally
	// across the flows sharing the queue; the residue joins the forward
	// queue, the excess is dropped.
	groupIDs := make([]string, 0, len(shapeGroups))
	for id := range shapeGroups {
		groupIDs = append(groupIDs, id)
	}
	sort.Strings(groupIDs) // determinism
	for _, id := range groupIDs {
		g := shapeGroups[id]
		bits := g.total * 8
		passBits := g.rule.consumeTokens(bits)
		passFrac := 0.0
		if bits > 0 {
			passFrac = passBits / bits
		}
		var passedSum, droppedSum int64
		for _, f := range g.offers {
			passed := f.bytes * passFrac
			droppedHere := f.bytes - passed
			passedSum += int64(passed)
			droppedSum += int64(droppedHere)
			res.ShaperDroppedBytes += droppedHere
			if passed > 0 {
				forward = append(forward, fwd{f.o, passed})
				forwardBytes += passed
			}
		}
		g.rule.counters.ForwardedBytes.Add(passedSum)
		g.rule.counters.ShapedResidue.Add(passedSum)
		g.rule.counters.DroppedBytes.Add(droppedSum)
	}

	// Forward queue: bounded by port capacity for the tick; when
	// oversubscribed every flow loses the same fraction (a fluid
	// approximation of tail drop on a shared queue).
	capBytes := p.CapacityBps * dtSeconds / 8
	deliverFrac := 1.0
	if forwardBytes > capBytes && forwardBytes > 0 {
		deliverFrac = capBytes / forwardBytes
	}
	for _, f := range forward {
		delivered := f.bytes * deliverFrac
		res.DeliveredBytes += delivered
		res.CongestionDroppedBytes += f.bytes - delivered
		if visit != nil {
			visit(f.o.Flow, f.o.FlowHash, delivered)
		}
	}
	// The scratch outlives this call in the pool; it must not keep the
	// caller's offers reachable.
	clear(forward)
	*scratch = forward
	fwdPool.Put(scratch)
	return res, offered
}
