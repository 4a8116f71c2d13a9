package mitctl

import (
	"errors"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/hw"
)

// RetryPolicy configures install/remove retry with exponential backoff.
// The zero value disables retry (one attempt per change), preserving the
// controller's historical behavior.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per change, including
	// the first. 0 and 1 both mean "no retry".
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt, in simulation
	// seconds; attempt k waits min(MaxDelay, BaseDelay*2^(k-1)).
	// Defaults to 1s when MaxAttempts > 1.
	BaseDelay float64
	// MaxDelay caps the exponential backoff (default 30s).
	MaxDelay float64
	// Jitter spreads retries: the delay is multiplied by 1 + Jitter*u
	// with u drawn uniformly from [0,1) off the controller's seeded RNG,
	// so identical seeds reproduce identical schedules. 0 disables.
	Jitter float64
}

// delay returns the backoff before attempt number attempts+1 (attempts
// counts failures so far, >= 1).
func (p RetryPolicy) delay(attempts int, u float64) float64 {
	d := p.BaseDelay
	for i := 1; i < attempts && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d * (1 + p.Jitter*u)
}

// DegradePolicy configures the degradation ladder: when a fine-grained
// spec's install fails terminally on a hardware resource class (F1, F2,
// QoS slots), the controller falls back to the coarsest RTBH-equivalent
// rule for the same target — a destination-prefix drop costing one L3-L4
// criterion — and upgrades back to the fine spec when headroom returns.
// This is the paper's advanced-blackholing↔RTBH spectrum made automatic.
type DegradePolicy struct {
	// Enabled turns the ladder on.
	Enabled bool
	// Headroom reports the remaining system-wide (MAC, L3-L4) budgets —
	// typically hw.EdgeRouter.Headroom. nil disables upgrades (degraded
	// mitigations stay coarse until withdrawn or expired).
	Headroom func() (mac, l34 int)
	// MarginMAC / MarginL34 is extra headroom required beyond the fine
	// spec's own cost before an upgrade is attempted, damping thrash at
	// the budget edge.
	MarginMAC int
	MarginL34 int
	// UpgradeCooldown is the minimum time (seconds) between upgrade
	// attempts for one mitigation after a failed attempt (default 5s).
	UpgradeCooldown float64
}

// CoarseRuleSuffix tags the RTBH-equivalent fallback rule a degraded
// mitigation installs: "<mitigation-id>" + CoarseRuleSuffix.
const CoarseRuleSuffix = "~coarse"

// coarseChange compiles the RTBH-equivalent fallback for a spec: a
// destination-prefix drop covering every peer — one L3-L4 criterion,
// the cheapest rule the hardware model admits.
func coarseChange(s Spec) core.ConfigChange {
	m := fabric.MatchAll()
	m.DstIP = s.Target.Masked()
	return core.ConfigChange{
		Op:     core.OpInstall,
		Member: s.Requester,
		RuleID: s.ID + CoarseRuleSuffix,
		Match:  m,
		Action: fabric.ActionDrop,
	}
}

// ErrorClassCounts buckets the controller's apply failures by hardware
// error class, for the looking glass and fault reports.
type ErrorClassCounts struct {
	// F1 / F2 / QoS count hw.ErrL34Exhausted, hw.ErrMACExhausted and
	// hw.ErrQoSPoliciesExhausted apply failures (the paper's labels).
	F1  int `json:"f1"`
	F2  int `json:"f2"`
	QoS int `json:"qos"`
	// QueueDeadline counts changes abandoned because InstallDeadline
	// elapsed before an attempt succeeded.
	QueueDeadline int `json:"queue_deadline"`
	// Other counts every remaining failure (fabric, validation,
	// injected faults that mimic no hardware class).
	Other int `json:"other"`
}

// Total returns the sum over all classes except QueueDeadline (which
// annotates, rather than replaces, the underlying failure class).
func (e ErrorClassCounts) Total() int { return e.F1 + e.F2 + e.QoS + e.Other }

// classify buckets an apply error into its counter field.
func (e *ErrorClassCounts) classify(err error) {
	switch {
	case errors.Is(err, hw.ErrL34Exhausted):
		e.F1++
	case errors.Is(err, hw.ErrMACExhausted):
		e.F2++
	case errors.Is(err, hw.ErrQoSPoliciesExhausted):
		e.QoS++
	default:
		e.Other++
	}
}

// resourceErr reports whether err is a hardware resource-exhaustion
// class — the only failures the degradation ladder reacts to (a fabric
// or validation error would fail coarse rules just the same).
func resourceErr(err error) bool {
	return errors.Is(err, hw.ErrL34Exhausted) ||
		errors.Is(err, hw.ErrMACExhausted) ||
		errors.Is(err, hw.ErrQoSPoliciesExhausted)
}

// ErrorClasses returns the per-class apply-failure counters.
func (c *Controller) ErrorClasses() ErrorClassCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errClasses
}

// LastError returns the most recent apply or compilation error, if any.
func (c *Controller) LastError() (core.ApplyError, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.errTotal == 0 {
		return core.ApplyError{}, false
	}
	return c.lastErr, true
}

// SetQueueStalled gates the change queue: while stalled, Process keeps
// expiring TTLs and accepting requests but releases no changes (a wedged
// management session to the edge router). Unstalling lets the queue
// drain at the token rate again, bursting up to QueueBurst.
func (c *Controller) SetQueueStalled(stalled bool) {
	c.mu.Lock()
	c.stalled = stalled
	c.mu.Unlock()
}
