package core

import (
	"fmt"

	"stellar/internal/fabric"
)

// ChangeOp is the kind of an abstract configuration change.
type ChangeOp int

// Operations.
const (
	OpInstall ChangeOp = iota
	OpRemove
)

func (o ChangeOp) String() string {
	if o == OpInstall {
		return "install"
	}
	return "remove"
}

// ConfigChange is one abstract, hardware-independent configuration
// change produced by the blackholing controller from RIB diffs
// (Section 4.4). The network manager compiles it into hardware-specific
// state.
type ConfigChange struct {
	Op ChangeOp
	// Member is the victim member whose egress port the rule applies to.
	Member string
	// RuleID is the stable identifier of the data-plane rule.
	RuleID string
	// Match and Action describe the rule for OpInstall.
	Match        fabric.Match
	Action       fabric.ActionKind
	ShapeRateBps float64
}

func (c ConfigChange) String() string {
	return fmt.Sprintf("%s %s on %s", c.Op, c.RuleID, c.Member)
}

// ApplyError records one failed configuration change.
type ApplyError struct {
	Change ConfigChange
	Err    error
}

// DequeuedChange pairs a change with the time it spent in the queue —
// the "time from blackholing signal to configuration" of Figure 10(b).
type DequeuedChange struct {
	Change ConfigChange
	// Waited is the queueing delay in seconds.
	Waited float64
}

// ChangeQueue is the token-bucket software queue between the blackholing
// controller and the network manager (Figure 7). It limits the
// configuration change rate to what the switch control plane sustains
// (Figure 10a: ~4.33 updates/s at the 15% CPU cap) while allowing a
// configurable maximum burst size (MBS).
//
// The queue is driven by an explicit clock so simulations replay traces
// in virtual time; times are float64 seconds.
type ChangeQueue struct {
	ratePerSec float64
	burst      float64

	tokens float64
	last   float64
	queue  []queuedChange
	// depth high-water mark, for capacity planning.
	maxDepth int
}

type queuedChange struct {
	change     ConfigChange
	enqueuedAt float64
}

// NewChangeQueue builds a queue with the given sustainable rate and
// maximum burst size (in changes). The bucket starts full.
func NewChangeQueue(ratePerSec float64, maxBurst int) *ChangeQueue {
	if maxBurst < 1 {
		maxBurst = 1
	}
	return &ChangeQueue{
		ratePerSec: ratePerSec,
		burst:      float64(maxBurst),
		tokens:     float64(maxBurst),
	}
}

// Rate returns the configured dequeue rate.
func (q *ChangeQueue) Rate() float64 { return q.ratePerSec }

// Enqueue adds a change at the given time.
func (q *ChangeQueue) Enqueue(c ConfigChange, now float64) {
	q.queue = append(q.queue, queuedChange{change: c, enqueuedAt: now})
	if len(q.queue) > q.maxDepth {
		q.maxDepth = len(q.queue)
	}
}

// Len returns the number of queued changes.
func (q *ChangeQueue) Len() int { return len(q.queue) }

// MaxDepth returns the high-water mark of the queue depth.
func (q *ChangeQueue) MaxDepth() int { return q.maxDepth }

// Drain refills the token bucket up to now and dequeues every change a
// token is available for, FIFO. Draining at time t after enqueueing at
// t0 yields Waited == t - t0 for changes the bucket admits immediately.
func (q *ChangeQueue) Drain(now float64) []DequeuedChange {
	if now > q.last {
		q.tokens += (now - q.last) * q.ratePerSec
		if q.tokens > q.burst {
			q.tokens = q.burst
		}
		q.last = now
	}
	var out []DequeuedChange
	for len(q.queue) > 0 && q.tokens >= 1 {
		qc := q.queue[0]
		q.queue = q.queue[1:]
		q.tokens--
		out = append(out, DequeuedChange{Change: qc.change, Waited: now - qc.enqueuedAt})
	}
	return out
}
