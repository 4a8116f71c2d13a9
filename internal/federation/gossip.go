package federation

import (
	"sort"
	"sync"

	"stellar/internal/mitctl"
)

// SpecGossip is the inter-IXP signaling plane: a store-and-forward link
// that relays mitctl.Spec requests admitted at one exchange to every
// other exchange after a fixed propagation delay in ticks. It leans on
// two properties the mitigation control plane already guarantees:
// content-derived IDs make a relayed re-request idempotent (a spec the
// target already installed is refreshed, never forked), and each
// exchange's own admission and IRR validation still judges the relayed
// request locally — the link transports intent, not authority.
type SpecGossip struct {
	delay int

	mu      sync.Mutex
	seq     []int // per-origin capture sequence, for deterministic ordering
	pending []*gossipMsg
	signals []*signal
}

// gossipMsg is one in-flight relay.
type gossipMsg struct {
	spec        mitctl.Spec
	origin      int
	originTick  int
	deliverTick int
	seq         int
	sig         *signal
}

// signal tracks one captured spec across the federation for the report.
type signal struct {
	id         string
	origin     int
	originTick int
	seq        int
	// deliveries is appended under the tick barrier (single-threaded
	// rounds) and read after the run — no lock needed.
	deliveries []delivery
}

type delivery struct {
	ex  int
	err error
}

func newSpecGossip(exchanges, delayTicks int) *SpecGossip {
	return &SpecGossip{delay: delayTicks, seq: make([]int, exchanges)}
}

// DelayTicks returns the configured propagation delay.
func (g *SpecGossip) DelayTicks() int { return g.delay }

// enqueue captures a spec admitted at origin during tick originTick.
func (g *SpecGossip) enqueue(origin, originTick int, spec mitctl.Spec) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := &signal{id: spec.ID, origin: origin, originTick: originTick, seq: g.seq[origin]}
	g.seq[origin]++
	g.signals = append(g.signals, s)
	g.pending = append(g.pending, &gossipMsg{
		spec:        spec,
		origin:      origin,
		originTick:  originTick,
		deliverTick: originTick + g.delay,
		seq:         s.seq,
		sig:         s,
	})
}

// due pops every relay whose delivery tick has arrived, in
// deterministic (deliverTick, origin, capture-sequence) order. The
// per-origin sequence is deterministic because each exchange's spine is
// single-threaded; ordering across origins by index removes the only
// nondeterminism left (which spine reached the gossip mutex first).
func (g *SpecGossip) due(tick int) []*gossipMsg {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*gossipMsg
	rest := g.pending[:0]
	for _, m := range g.pending {
		if m.deliverTick <= tick {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	g.pending = rest
	sort.Slice(out, func(i, j int) bool {
		if out[i].deliverTick != out[j].deliverTick {
			return out[i].deliverTick < out[j].deliverTick
		}
		if out[i].origin != out[j].origin {
			return out[i].origin < out[j].origin
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// snapshot returns the captured signals in deterministic
// (originTick, origin, sequence) order.
func (g *SpecGossip) snapshot() []*signal {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := append([]*signal(nil), g.signals...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].originTick != out[j].originTick {
			return out[i].originTick < out[j].originTick
		}
		if out[i].origin != out[j].origin {
			return out[i].origin < out[j].origin
		}
		return out[i].seq < out[j].seq
	})
	return out
}
