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
//
// Flow, never nil, points into the producer's flow table instead of
// carrying the 64-byte key, so an offer is 32 bytes. The producer owns
// the key and must not change it while a port may see it again: a port
// takes an offer that carries the pointer its position carried last
// tick for the same flow, without reading the key. A producer that
// changes a flow points the offer at a new key. A port's positional
// cache keeps the pointers of its last egress until its next one; the
// flow memo stores its own copy of each key.
type Offer struct {
	Flow    *netpkt.FlowKey
	Bytes   float64
	Packets float64
	// FlowHash optionally carries Flow.Hash() computed once by the
	// traffic generator. Only an offer the port's positional cache
	// misses (a first sighting, a reordered offer or a new key) probes
	// the port's flow memo with it. 0 means "not computed"; the
	// classifier hashes on demand.
	FlowHash uint64
}

// TickResult summarizes one egress tick on a port as byte totals per
// queue outcome. Per-flow deliveries are not part of it: they stream into
// the tick's FlowVisitor.
type TickResult struct {
	// PresentedBytes is the sum of the offers' bytes, added in offer
	// order.
	PresentedBytes float64
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

// Delivery is one forward-queue entry of an egress tick: the offer, in
// the caller's slice, and how many of its bytes got this far — by the
// time a FlowVisitor sees it, the bytes that went out the port.
type Delivery struct {
	Offer *Offer
	Bytes float64
}

// FlowVisitor receives a port's delivered flows once per egress tick, as
// one batch in forward-queue order (unmatched and forward-rule offers in
// offer order, then each shaping queue's residue), so a flow offered
// twice appears twice. The batch refers to the caller's offers instead
// of copying them; it is only valid during the call, and the visitor
// must not keep it. The flow monitor's shards sit behind it; a caller
// that wants a per-flow map sums into one here.
type FlowVisitor func(delivered []Delivery)

// OfferedBytes returns the bytes the port's queues accounted for this
// tick: delivered plus every drop, which is PresentedBytes up to float
// rounding.
func (t TickResult) OfferedBytes() float64 {
	return t.DeliveredBytes + t.RuleDroppedBytes + t.ShaperDroppedBytes + t.CongestionDroppedBytes
}

// Port is one member-facing IXP port with an egress QoS engine.
//
// Rule management (InstallRule/RemoveRule) is serialized on an internal
// mutex and publishes each rule set as an immutable classifier
// generation through an atomic pointer (see classifier.go). The data
// path — ClassifyHashed and Egress — reads the current classifier
// lock-free, so any number of goroutines can classify traffic while
// rules churn.
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
	// seq is the last generation published; it only ever grows, so a
	// verdict stamped by an earlier rule set, with or without rule-free
	// generations in between, is never taken for the current one. memo
	// (nil until the port first has rules) is the flow memo the next
	// generation inherits. Both are guarded by mu.
	seq  uint64
	memo *flowMemo
}

// Errors from rule management.
var (
	ErrDuplicateRule = errors.New("fabric: duplicate rule ID on port")
	ErrNoSuchRule    = errors.New("fabric: no such rule")
)

// NewPort creates a port.
func NewPort(name string, mac netpkt.MAC, capacityBps float64) *Port {
	p := &Port{Name: name, MAC: mac, CapacityBps: capacityBps}
	p.cls.Store(ruleFree)
	return p
}

// InstallRule appends a rule to the port's classification order and
// publishes the next classifier generation.
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
	p.publish(rules)
	return nil
}

// RemoveRule uninstalls the rule with the given ID and publishes the
// next classifier generation.
func (p *Port) RemoveRule(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if r.ID == id {
			rules := make([]*Rule, 0, len(p.rules)-1)
			rules = append(rules, p.rules[:i]...)
			rules = append(rules, p.rules[i+1:]...)
			p.publish(rules)
			return nil
		}
	}
	return ErrNoSuchRule
}

// publish makes rules the port's next classifier generation. The memo
// carries over, and its entries stamped by older generations are
// rescanned as they are met; a full memo is dropped instead, so the
// next flows start a fresh one. Callers hold p.mu.
func (p *Port) publish(rules []*Rule) {
	p.seq++
	p.rules = rules
	if p.memo != nil && p.memo.len() >= maxMemoEntries {
		p.memo = nil
	}
	if len(rules) == 0 {
		p.cls.Store(ruleFree)
		return
	}
	if p.memo == nil {
		p.memo = new(flowMemo)
	}
	next := compile(rules, p.seq)
	next.memo = p.memo
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

// ClassifyHashed returns the first matching rule for the flow, or nil
// for the default forwarding queue; hash is the flow's precomputed
// netpkt.FlowKey.Hash (0: computed on demand). It is lock-free and safe
// to call concurrently with rule management and egress ticks, and reads
// f only during the call.
func (p *Port) ClassifyHashed(f *netpkt.FlowKey, hash uint64) *Rule {
	return p.cls.Load().classifyHashed(f, hash)
}

// fwdPool recycles the per-tick forward-queue scratch across egress
// calls, so a steady-state tick allocates no per-port buffers.
var fwdPool = sync.Pool{New: func() any { return new([]Delivery) }}

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

// egress processes one tick of dtSeconds on the port: classifies every
// offer, applies drop and shaping queues, then subjects the forward
// queue to the port capacity with proportional (fair) tail drop under
// congestion — the behaviour a congested member port exhibits in
// Section 2.2's attack scenario.
//
// The classification loop runs against one immutable classifier
// snapshot: rules installed concurrently take effect the next tick, and
// no lock is held while offers are processed. The delivered flows
// stream into visit as one batch; a nil visit skips monitoring and
// leaves the byte totals. The caller's slice is read in place, never
// copied.
func (p *Port) egress(offers []Offer, dtSeconds float64, visit FlowVisitor) (res TickResult) {
	cls := p.cls.Load()

	scratch := fwdPool.Get().(*[]Delivery)
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
		offers []Delivery
		total  float64
	}
	var shapeGroups map[string]*shapeGroup

	// Offers within the memo's positional cache resolve through it, the
	// rest through the hash probe. A rule-free classifier has no memo,
	// and an egress that finds another holding the cache (two concurrent
	// ticks of one port) probes every offer. The cache is cut to this
	// egress's offers, so a port never pins a key table its producer has
	// stopped offering.
	var pos []position
	m := cls.memo
	cached := len(cls.rules) > 0 && m.posMu.TryLock()
	if cached {
		if n, k := min(len(offers), maxMemoEntries), len(m.pos); k > n {
			clear(m.pos[n:])
			m.pos = m.pos[:n]
		} else {
			m.pos = append(m.pos, make([]position, n-k)...)
		}
		pos = m.pos
	}

	var run matchRun
	for i := range offers {
		o := &offers[i]
		bytes := o.Bytes
		res.PresentedBytes += bytes
		var r *Rule
		if i < len(pos) {
			if at := &pos[i]; at.src == o.Flow {
				r = cls.resolve(at.e, o.Flow)
			} else {
				r, at.e = cls.classifyEntry(o.Flow, o.FlowHash)
				at.src = nil
				if at.e != nil {
					at.src = o.Flow
				}
			}
		} else {
			r = cls.classifyHashed(o.Flow, o.FlowHash)
		}
		if r == nil {
			forward = append(forward, Delivery{o, bytes})
			forwardBytes += bytes
			continue
		}
		if r != run.rule {
			run.flush()
			run.rule = r
		}
		run.packets += int64(o.Packets)
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
			g.offers = append(g.offers, Delivery{o, bytes})
			g.total += bytes
		default: // explicit forward rule
			run.forwarded += int64(bytes)
			forward = append(forward, Delivery{o, bytes})
			forwardBytes += bytes
		}
	}
	run.flush()
	if cached {
		m.posMu.Unlock()
	}

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
			passed := f.Bytes * passFrac
			droppedHere := f.Bytes - passed
			passedSum += int64(passed)
			droppedSum += int64(droppedHere)
			res.ShaperDroppedBytes += droppedHere
			if passed > 0 {
				forward = append(forward, Delivery{f.Offer, passed})
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
	for i := range forward {
		f := &forward[i]
		delivered := f.Bytes * deliverFrac
		res.DeliveredBytes += delivered
		res.CongestionDroppedBytes += f.Bytes - delivered
		f.Bytes = delivered
	}
	if visit != nil {
		visit(forward)
	}
	// The scratch outlives this call in the pool; it must not keep the
	// caller's offers reachable.
	clear(forward)
	*scratch = forward
	fwdPool.Put(scratch)
	return res
}
