package mitctl

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"sync"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// State is a mitigation's lifecycle position.
type State uint8

// Lifecycle states. Pending and Active are live; the rest are final.
const (
	// StatePending: validated and queued; the change queue has not yet
	// released its installs (signal-to-configuration delay, Figure 10b).
	StatePending State = iota
	// StateActive: at least one fabric rule is installed.
	StateActive
	// StateExpired: the TTL clock ran out; removals are queued/applied.
	StateExpired
	// StateWithdrawn: the requester withdrew it.
	StateWithdrawn
	// StateRejected: validation, admission control or every rule install
	// failed; nothing remains installed.
	StateRejected
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateExpired:
		return "expired"
	case StateWithdrawn:
		return "withdrawn"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Final reports whether the state is terminal.
func (s State) Final() bool { return s != StatePending && s != StateActive }

// Mitigation is one spec plus its lifecycle state — what Snapshot, Get
// and the event stream expose.
type Mitigation struct {
	Spec
	State State
	// RequestedAt / InstalledAt are simulation timestamps (seconds);
	// InstalledAt − RequestedAt is the mitigation's wait in the change
	// queue, its signal-to-configuration delay (Figure 10b).
	RequestedAt float64
	InstalledAt float64
	// ExpiresAt is the TTL deadline; 0 means the mitigation never
	// expires. Refreshing re-arms it.
	ExpiresAt float64
	// RuleIDs are the fabric rule tags the mitigation installs; each
	// tag carries the mitigation ID so per-rule telemetry counters roll
	// up per mitigation.
	RuleIDs []string
	// LastError records the most recent validation or install failure.
	LastError string
	// Degraded reports that the mitigation is currently running on its
	// coarse RTBH-equivalent fallback rule (see DegradePolicy) instead
	// of (some of) its fine-grained spec.
	Degraded bool
	// Version is the store version of the mitigation's last transition.
	Version uint64
}

// TTLRemaining returns the seconds left before expiry at time now, or
// -1 when the mitigation never expires.
func (m Mitigation) TTLRemaining(now float64) float64 {
	if m.ExpiresAt == 0 {
		return -1
	}
	if r := m.ExpiresAt - now; r > 0 {
		return r
	}
	return 0
}

// EventType labels a lifecycle transition on the event stream.
type EventType uint8

// Event types, in lifecycle order.
const (
	EventRequested EventType = iota
	EventValidated
	EventInstalled
	EventRefreshed
	EventExpired
	EventWithdrawn
	EventRejected
	// EventDegraded: a fine-grained install failed terminally on a
	// hardware resource class and the coarse RTBH-equivalent fallback
	// rule is installed in its place.
	EventDegraded
	// EventUpgraded: headroom returned, the fine-grained rules are
	// reinstalled and the coarse fallback's removal is queued.
	EventUpgraded
)

func (t EventType) String() string {
	switch t {
	case EventRequested:
		return "requested"
	case EventValidated:
		return "validated"
	case EventInstalled:
		return "installed"
	case EventRefreshed:
		return "refreshed"
	case EventExpired:
		return "expired"
	case EventWithdrawn:
		return "withdrawn"
	case EventRejected:
		return "rejected"
	case EventDegraded:
		return "degraded"
	case EventUpgraded:
		return "upgraded"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Event is one lifecycle transition delivered to subscribers.
type Event struct {
	Type EventType
	Time float64
	// Mitigation is a copy of the state after the transition.
	Mitigation Mitigation
}

// Usage is a mitigation's aggregated data-plane telemetry: the sum of
// its fabric rules' counters, including rules already removed (their
// final counters are folded in at removal). This is the "measure" end
// of the request→install→measure loop.
type Usage struct {
	MatchedPackets int64
	MatchedBytes   int64
	DroppedBytes   int64
	ForwardedBytes int64
	ShapedResidue  int64
}

func (u *Usage) add(c fabric.CounterSnapshot) {
	u.MatchedPackets += c.MatchedPackets
	u.MatchedBytes += c.MatchedBytes
	u.DroppedBytes += c.DroppedBytes
	u.ForwardedBytes += c.ForwardedBytes
	u.ShapedResidue += c.ShapedResidue
}

// Snapshot is a consistent view of the store: every mitigation (sorted
// by ID) plus the version counter that produced it. The version bumps
// on every transition, so pollers can cheaply detect change.
type Snapshot struct {
	Version     uint64
	Mitigations []Mitigation
}

// Errors returned by Request and Withdraw.
var (
	// ErrValidation wraps IRR/ownership validation failures.
	ErrValidation = errors.New("mitctl: validation failed")
	// ErrAdmission: the requester exceeded its live-mitigation budget.
	ErrAdmission = errors.New("mitctl: admission control rejected request")
	// ErrSpecMismatch: the ID is live with a different spec; withdraw
	// it first (mitigation specs are immutable while live).
	ErrSpecMismatch = errors.New("mitctl: mitigation exists with a different spec")
	// ErrUnknownMitigation: no mitigation with that ID.
	ErrUnknownMitigation = errors.New("mitctl: unknown mitigation")
	// ErrNotOwner: only the requesting member may withdraw.
	ErrNotOwner = errors.New("mitctl: not the mitigation owner")
)

// Config assembles a Controller.
type Config struct {
	// Manager applies compiled configuration changes to the data plane
	// under hardware admission control (core.QoSManager).
	Manager core.NetworkManager
	// QueueRate / QueueBurst parameterize the token-bucket change queue
	// between the controller and the manager (defaults: the production
	// 4.33 changes/s, burst 20 — Figure 10a).
	QueueRate  float64
	QueueBurst int
	// Validator checks prefix ownership on Request; nil accepts all.
	Validator Validator
	// Portal resolves customer-defined rule templates (SelCustom
	// signals, the portal channel); nil creates an empty portal.
	Portal *core.Portal
	// MemberMAC resolves a peer name to its fabric MAC for per-peer
	// scope; nil rejects ScopePerPeer requests.
	MemberMAC func(string) (netpkt.MAC, bool)
	// MaxActivePerMember bounds a member's live mitigations (0: no
	// controller-level bound; the hardware budget still applies).
	MaxActivePerMember int
	// DefaultTTL is applied to specs with TTL 0 (0: never expire).
	DefaultTTL float64

	// Retry re-queues failed changes with exponential backoff + jitter.
	// Zero value: one attempt, the historical behavior.
	Retry RetryPolicy
	// InstallDeadline bounds the time (seconds) from a change's first
	// enqueue until an attempt must succeed; past it the change is
	// abandoned (counted as QueueDeadline) even if retries remain.
	// 0 means no deadline.
	InstallDeadline float64
	// Degrade enables the fine→coarse→fine degradation ladder.
	Degrade DegradePolicy
	// InstallHook, when non-nil, runs before every manager Apply with
	// the change, its attempt number (1-based) and the clock; a non-nil
	// return is treated as the apply failing with that error, and the
	// manager is not called. This is the fault-injection seam
	// (internal/faults) — production deployments leave it nil.
	InstallHook func(change core.ConfigChange, attempt int, now float64) error
	// Seed seeds the controller's deterministic RNG (retry jitter).
	// 0 uses a fixed default so runs are reproducible by construction.
	Seed uint64
}

// rule install status, tracked per fabric rule tag across generations.
type ruleStatus uint8

const (
	ruleQueued ruleStatus = iota + 1
	ruleInstalled
	ruleFailed
)

// ruleEntry pairs a rule's status with the generation (mitigation
// record) the status belongs to. Rule IDs are stable across
// re-requests of the same spec, so after a withdraw-and-re-request the
// queue can hold ops from two generations for the same ID; the owner
// keeps them apart — a remove queued by one generation must not tear
// down (or mark failed) the rule a newer generation has since
// installed under the same ID. ruleInstalled mirrors the physical
// port: it is set only after a successful manager apply and cleared
// only by a successful removal.
type ruleEntry struct {
	status ruleStatus
	owner  *mit
}

// mit is the controller's internal record: the public view plus install
// bookkeeping.
type mit struct {
	Mitigation
	key             string
	pendingInstalls int
	okInstalls      int
	// accrued holds the final counters of rules already removed.
	accrued Usage

	// Degradation-ladder bookkeeping: the fine-grained install changes
	// (kept for upgrade re-enqueue), their total TCAM cost, and the
	// upgrade attempt state.
	fineOps          []core.ConfigChange
	fineMAC, fineL34 int
	upgrading        bool
	upgradePending   int
	nextUpgradeAt    float64
}

// queuedOp is one paced configuration change bound to its mitigation
// generation, so a re-requested ID never confuses an older generation's
// in-flight changes with the new one's.
type queuedOp struct {
	change core.ConfigChange
	m      *mit
	// firstAt is the first enqueue time, surviving retries — the
	// InstallDeadline clock. attempts counts apply attempts so far;
	// notBefore delays a retried op until its backoff elapses.
	firstAt   float64
	attempts  int
	notBefore float64
	// coarse / upgrade tag the op's role in the degradation ladder.
	coarse  bool
	upgrade bool
}

// Controller owns the mitigation lifecycle: it validates requests,
// compiles them into tagged fabric rules, paces installs and removals
// through a token-bucket change queue, drives TTL expiry from the tick
// loop, and maintains the versioned store and event stream.
//
// All methods are safe for concurrent use. Process must be called with
// a monotonically non-decreasing clock (the simulation tick loop).
type Controller struct {
	cfg Config

	// processMu serializes Process end to end (drain + apply), so
	// concurrent Process calls cannot reorder an install after its
	// remove.
	processMu sync.Mutex

	mu      sync.Mutex
	mits    map[string]*mit
	rules   map[string]ruleEntry
	queue   []queuedOp
	tokens  float64
	lastRef float64
	// nextDue is no later than the earliest ExpiresAt among live
	// mitigations (+Inf when none can expire): Process walks the store
	// for due TTLs only once the clock reaches it.
	nextDue float64
	version uint64
	subs    []func(Event)

	applied   int
	applyErrs []core.ApplyError
	errTotal  int

	errClasses ErrorClassCounts
	lastErr    core.ApplyError
	stalled    bool
	rng        *stats.Rand
}

// maxRetainedErrors bounds the error log for long-running deployments:
// it keeps a recent window (oldest half dropped on overflow) instead of
// growing for the controller's lifetime; rule-status entries are deleted
// once their removal resolves.
const maxRetainedErrors = 4096

func (c *Controller) noteApplyErrLocked(e core.ApplyError) {
	c.errTotal++
	c.lastErr = e
	c.errClasses.classify(e.Err)
	c.applyErrs = append(c.applyErrs, e)
	if len(c.applyErrs) > maxRetainedErrors {
		c.applyErrs = append(c.applyErrs[:0:0], c.applyErrs[len(c.applyErrs)-maxRetainedErrors/2:]...)
	}
}

// New creates a Controller.
func New(cfg Config) *Controller {
	if cfg.QueueRate == 0 {
		cfg.QueueRate = 4.33
	}
	if cfg.QueueBurst < 1 {
		cfg.QueueBurst = 20
	}
	if cfg.Portal == nil {
		cfg.Portal = core.NewPortal()
	}
	if cfg.Retry.MaxAttempts > 1 {
		if cfg.Retry.BaseDelay <= 0 {
			cfg.Retry.BaseDelay = 1
		}
		if cfg.Retry.MaxDelay <= 0 {
			cfg.Retry.MaxDelay = 30
		}
	}
	if cfg.Degrade.Enabled && cfg.Degrade.UpgradeCooldown <= 0 {
		cfg.Degrade.UpgradeCooldown = 5
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Controller{
		cfg:     cfg,
		mits:    make(map[string]*mit),
		rules:   make(map[string]ruleEntry),
		tokens:  float64(cfg.QueueBurst),
		nextDue: math.Inf(1),
		rng:     stats.NewRand(seed),
	}
}

// Portal returns the customer rule portal.
func (c *Controller) Portal() *core.Portal { return c.cfg.Portal }

// Subscribe attaches a lifecycle event subscriber. Events are delivered
// synchronously, outside the controller's locks, in transition order.
func (c *Controller) Subscribe(fn func(Event)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, fn)
}

// emit delivers events to the subscribers captured at transition time.
func (c *Controller) emit(subs []func(Event), evs []Event) {
	for _, ev := range evs {
		for _, fn := range subs {
			fn(ev)
		}
	}
}

// Request asks for a mitigation at time now. The spec is validated
// (shape, IRR ownership, admission control) and its installs enter the
// change queue; they take effect when Process next releases them.
//
// Requests are idempotent: re-requesting a live mitigation with an
// identical spec refreshes its TTL and installs nothing new. A live ID
// with a different spec is refused with ErrSpecMismatch. A final-state
// ID (expired, withdrawn, rejected) starts a fresh lifecycle.
//
// The returned Mitigation is a copy of the stored state.
func (c *Controller) Request(spec Spec, now float64) (Mitigation, error) {
	spec, err := spec.normalized()
	if err != nil {
		return Mitigation{}, err
	}
	if spec.TTL == 0 {
		spec.TTL = c.cfg.DefaultTTL
	}
	if spec.ID == "" {
		spec.ID = DeriveID(spec)
	}
	key := spec.key()

	// Resolve per-peer MACs before taking the lock.
	var macs []netpkt.MAC
	var macErr error
	if spec.Scope == ScopePerPeer {
		macs = make([]netpkt.MAC, len(spec.Peers))
		for i, p := range spec.Peers {
			if c.cfg.MemberMAC == nil {
				macErr = fmt.Errorf("%w: per-peer scope unsupported (no MAC resolver)", ErrValidation)
				break
			}
			mac, ok := c.cfg.MemberMAC(p)
			if !ok {
				macErr = fmt.Errorf("%w: unknown peer %s", ErrValidation, p)
				break
			}
			macs[i] = mac
		}
	}

	c.mu.Lock()
	if existing, ok := c.mits[spec.ID]; ok && !existing.State.Final() {
		if existing.key != key {
			c.mu.Unlock()
			return Mitigation{}, fmt.Errorf("%w: %s", ErrSpecMismatch, spec.ID)
		}
		// Refresh: re-arm the TTL clock, nothing to install.
		if spec.TTL > 0 {
			existing.ExpiresAt = now + spec.TTL
			existing.TTL = spec.TTL
			c.nextDue = math.Min(c.nextDue, existing.ExpiresAt)
		} else {
			existing.ExpiresAt = 0
			existing.TTL = 0
		}
		c.version++
		existing.Version = c.version
		view := existing.Mitigation
		subs, evs := c.subsLocked(), []Event{{Type: EventRefreshed, Time: now, Mitigation: view}}
		c.mu.Unlock()
		c.emit(subs, evs)
		return view, nil
	}

	reject := func(reason error) (Mitigation, error) {
		m := &mit{Mitigation: Mitigation{
			Spec: spec, State: StateRejected, RequestedAt: now, LastError: reason.Error(),
		}, key: key}
		c.version++
		m.Version = c.version
		c.mits[spec.ID] = m
		view := m.Mitigation
		subs, evs := c.subsLocked(), []Event{
			{Type: EventRequested, Time: now, Mitigation: view},
			{Type: EventRejected, Time: now, Mitigation: view},
		}
		c.mu.Unlock()
		c.emit(subs, evs)
		return view, reason
	}

	if macErr != nil {
		return reject(macErr)
	}
	if c.cfg.Validator != nil {
		if err := c.cfg.Validator.Validate(spec.Requester, spec.Target); err != nil {
			return reject(fmt.Errorf("%w: %v", ErrValidation, err))
		}
	}
	if max := c.cfg.MaxActivePerMember; max > 0 {
		live := 0
		for _, m := range c.mits {
			if m.Requester == spec.Requester && !m.State.Final() {
				live++
			}
		}
		if live >= max {
			return reject(fmt.Errorf("%w: member %s has %d live mitigations (max %d)",
				ErrAdmission, spec.Requester, live, max))
		}
	}

	m := &mit{Mitigation: Mitigation{
		Spec: spec, State: StatePending, RequestedAt: now, RuleIDs: spec.ruleIDs(),
	}, key: key}
	if spec.TTL > 0 {
		m.ExpiresAt = now + spec.TTL
		c.nextDue = math.Min(c.nextDue, m.ExpiresAt)
	}
	m.pendingInstalls = len(m.RuleIDs)
	for i, rid := range m.RuleIDs {
		match := spec.Match
		if spec.Scope == ScopePerPeer {
			mac := macs[i]
			match.SrcMAC = &mac
		}
		if c.rules[rid].status != ruleInstalled {
			// ruleInstalled means a prior generation's rule is still
			// physically installed with its removal queued ahead of this
			// install; leave the entry so that removal still applies.
			c.rules[rid] = ruleEntry{status: ruleQueued, owner: m}
		}
		change := core.ConfigChange{
			Op: core.OpInstall, Member: spec.Requester, RuleID: rid,
			Match: match, Action: spec.Action, ShapeRateBps: spec.ShapeRateBps,
		}
		m.fineOps = append(m.fineOps, change)
		cm, cl := match.CriteriaCount()
		m.fineMAC += cm
		m.fineL34 += cl
		c.enqueueLocked(queuedOp{change: change, m: m, firstAt: now})
	}
	c.version++
	m.Version = c.version
	c.mits[spec.ID] = m
	view := m.Mitigation
	subs, evs := c.subsLocked(), []Event{
		{Type: EventRequested, Time: now, Mitigation: view},
		{Type: EventValidated, Time: now, Mitigation: view},
	}
	c.mu.Unlock()
	c.emit(subs, evs)
	return view, nil
}

// Withdraw retracts a mitigation at time now. Only the requesting
// member may withdraw (requester "" bypasses the check, for operator
// tooling). Withdrawing a mitigation already in a final state — e.g.
// one that expired in the same tick — is a no-op, not an error.
func (c *Controller) Withdraw(id, requester string, now float64) error {
	c.mu.Lock()
	m, ok := c.mits[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownMitigation, id)
	}
	if requester != "" && requester != m.Requester {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s belongs to %s", ErrNotOwner, id, m.Requester)
	}
	if m.State.Final() {
		c.mu.Unlock()
		return nil
	}
	c.finalizeLocked(m, StateWithdrawn, now)
	view := m.Mitigation
	subs := c.subsLocked()
	c.mu.Unlock()
	c.emit(subs, []Event{{Type: EventWithdrawn, Time: now, Mitigation: view}})
	return nil
}

// finalizeLocked moves a live mitigation to a final state and queues
// the removal of its rules.
func (c *Controller) finalizeLocked(m *mit, s State, now float64) {
	m.State = s
	c.version++
	m.Version = c.version
	for _, rid := range m.RuleIDs {
		c.enqueueLocked(queuedOp{change: core.ConfigChange{
			Op: core.OpRemove, Member: m.Requester, RuleID: rid,
		}, m: m, firstAt: now})
	}
}

func (c *Controller) enqueueLocked(op queuedOp) {
	c.queue = append(c.queue, op)
}

func (c *Controller) subsLocked() []func(Event) {
	if len(c.subs) == 0 {
		return nil
	}
	out := make([]func(Event), len(c.subs))
	copy(out, c.subs)
	return out
}

// Process advances the controller to time now: mitigations whose TTL
// ran out expire, then the token-bucket queue releases every change a
// token is available for (FIFO) and applies it through the manager.
// It returns the number of changes applied. The tick loop calls it
// once per tick, before traffic egresses.
func (c *Controller) Process(now float64) int {
	c.processMu.Lock()
	defer c.processMu.Unlock()

	var pending []Event
	c.mu.Lock()
	// TTL clock: expire before draining so the removals of a mitigation
	// expiring this tick can ride this tick's tokens. Due mitigations
	// finalize in ID order — map iteration order must not decide which
	// one's removals win the tick's remaining tokens (determinism is a
	// repo-wide invariant). Until the clock reaches nextDue nothing can be
	// due, so an idle tick does not walk the store.
	if now >= c.nextDue {
		var due []*mit
		c.nextDue = math.Inf(1)
		for _, m := range c.mits {
			if m.State.Final() || m.ExpiresAt <= 0 {
				continue
			}
			if m.ExpiresAt <= now {
				due = append(due, m)
			} else {
				c.nextDue = math.Min(c.nextDue, m.ExpiresAt)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i].ID < due[j].ID })
		for _, m := range due {
			c.finalizeLocked(m, StateExpired, now)
			pending = append(pending, Event{Type: EventExpired, Time: now, Mitigation: m.Mitigation})
		}
	}
	// Degradation-ladder upgrades: degraded mitigations whose fine spec
	// now fits the returned headroom re-enqueue their failed fine rules
	// (ID order; the cost of upgrades started this tick is deducted from
	// the local headroom view so concurrent upgrades never oversubscribe).
	c.scanUpgradesLocked(now)
	// Token-bucket release, FIFO (same discipline as Figure 10a's
	// change-rate cap: refill rate*dt, clamp to burst, one token per
	// change). A retried op whose backoff has not elapsed keeps its
	// queue position but lets later ops pass; a stalled queue releases
	// nothing at all.
	if now > c.lastRef {
		c.tokens += (now - c.lastRef) * c.cfg.QueueRate
		if c.tokens > float64(c.cfg.QueueBurst) {
			c.tokens = float64(c.cfg.QueueBurst)
		}
		c.lastRef = now
	}
	var released []queuedOp
	if !c.stalled {
		rest := c.queue[:0]
		for _, op := range c.queue {
			if c.tokens >= 1 && op.notBefore <= now {
				released = append(released, op)
				c.tokens--
			} else {
				rest = append(rest, op)
			}
		}
		c.queue = rest
	}
	subs := c.subsLocked()
	c.mu.Unlock()

	applied := 0
	for _, op := range released {
		if evs, ok := c.applyOne(op, now); ok {
			applied++
			pending = append(pending, evs...)
		}
	}
	c.emit(subs, pending)
	return applied
}

// ErrInstallDeadline is the terminal error recorded when a change's
// InstallDeadline elapses before any attempt succeeds.
var ErrInstallDeadline = errors.New("mitctl: install deadline exceeded")

// applyChange runs one attempt: the fault-injection hook first (a
// non-nil return IS the attempt's failure), then the manager.
func (c *Controller) applyChange(op queuedOp, now float64) error {
	if h := c.cfg.InstallHook; h != nil {
		if err := h(op.change, op.attempts, now); err != nil {
			return err
		}
	}
	return c.cfg.Manager.Apply(op.change)
}

// retryLocked decides whether a failed op gets another attempt. When it
// does, the op re-enters the queue with its backoff stamped into
// notBefore and retryLocked returns true; terminal failures (retry
// disabled, attempts exhausted, deadline would pass) return false.
func (c *Controller) retryLocked(op queuedOp, now float64) bool {
	p := c.cfg.Retry
	if p.MaxAttempts <= 1 || op.attempts >= p.MaxAttempts {
		return false
	}
	delay := p.delay(op.attempts, c.rng.Float64())
	if dl := c.cfg.InstallDeadline; dl > 0 && now+delay > op.firstAt+dl {
		c.errClasses.QueueDeadline++
		return false
	}
	op.notBefore = now + delay
	c.enqueueLocked(op)
	return true
}

// applyOne performs one released change and folds the outcome into the
// store. It returns lifecycle events to deliver and whether the change
// counted as applied.
func (c *Controller) applyOne(op queuedOp, now float64) ([]Event, bool) {
	op.attempts++
	if op.change.Op == core.OpRemove {
		c.mu.Lock()
		if e := c.rules[op.change.RuleID]; e.status != ruleInstalled || e.owner != op.m {
			// Nothing of this generation's to undo: the paired install
			// failed, is still queued behind its backoff, or a newer
			// generation has since installed under the same ID (its own
			// removal is queued and must not be preempted). Drop a
			// leftover ruleFailed entry of this generation; anything
			// another generation owns stays untouched.
			if e.status == ruleFailed && e.owner == op.m {
				delete(c.rules, op.change.RuleID)
			}
			c.mu.Unlock()
			return nil, false
		}
		c.mu.Unlock()
		// Fold the rule's final counters into the mitigation before the
		// rule (and its counters) disappear from the port.
		var final fabric.CounterSnapshot
		haveFinal := false
		if src, ok := c.cfg.Manager.(core.CounterSource); ok {
			if counters, err := src.Counters(op.change.RuleID); err == nil {
				final = counters.Snapshot()
				haveFinal = true
			}
		}
		err := c.applyChange(op, now)
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil {
			c.noteApplyErrLocked(core.ApplyError{Change: op.change, Err: err})
			// A leaked rule outlives its mitigation; removes retry too.
			c.retryLocked(op, now)
			return nil, false
		}
		// The rule is off the port; its status entry has no further
		// reader (a re-request would start from a clean slate anyway).
		delete(c.rules, op.change.RuleID)
		if haveFinal {
			op.m.accrued.add(final)
		}
		c.applied++
		return nil, true
	}

	var err error
	if dl := c.cfg.InstallDeadline; dl > 0 && now > op.firstAt+dl {
		// The change sat in the queue (stall, backlog, retries) past its
		// deadline: abandon without touching the hardware.
		err = ErrInstallDeadline
	} else {
		err = c.applyChange(op, now)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := op.m
	if err != nil {
		c.noteApplyErrLocked(core.ApplyError{Change: op.change, Err: err})
		if err == ErrInstallDeadline {
			c.errClasses.QueueDeadline++
		} else if c.retryLocked(op, now) {
			// Another attempt is queued; the install is not settled yet.
			return nil, false
		}
		return c.installFailedLocked(op, err, now), false
	}
	c.rules[op.change.RuleID] = ruleEntry{status: ruleInstalled, owner: m}
	m.okInstalls++
	m.pendingInstalls--
	c.applied++
	if m.State.Final() {
		// The mitigation finalized while this install was backing off;
		// its removal pass already ran (and skipped this then-queued
		// rule), so pair the late install with a fresh removal.
		c.enqueueLocked(queuedOp{change: core.ConfigChange{
			Op: core.OpRemove, Member: m.Requester, RuleID: op.change.RuleID,
		}, m: m, firstAt: now})
		return nil, true
	}
	var evs []Event
	if m.State == StatePending {
		m.State = StateActive
		m.InstalledAt = now
		c.version++
		m.Version = c.version
		evs = append(evs, Event{Type: EventInstalled, Time: now, Mitigation: m.Mitigation})
	}
	if op.coarse && !m.Degraded {
		m.Degraded = true
		c.version++
		m.Version = c.version
		evs = append(evs, Event{Type: EventDegraded, Time: now, Mitigation: m.Mitigation})
	}
	if op.upgrade {
		m.upgradePending--
		if m.upgradePending == 0 {
			m.upgrading = false
			m.Degraded = false
			coarseID := m.ID + CoarseRuleSuffix
			for i, rid := range m.RuleIDs {
				if rid == coarseID {
					m.RuleIDs = append(m.RuleIDs[:i:i], m.RuleIDs[i+1:]...)
					break
				}
			}
			c.enqueueLocked(queuedOp{change: core.ConfigChange{
				Op: core.OpRemove, Member: m.Requester, RuleID: coarseID,
			}, m: m, firstAt: now})
			c.version++
			m.Version = c.version
			evs = append(evs, Event{Type: EventUpgraded, Time: now, Mitigation: m.Mitigation})
		}
	}
	return evs, true
}

// installFailedLocked settles a terminally failed install: marks the
// rule, records the error on the mitigation, and walks the degradation
// ladder — a resource-class failure of a fine-grained rule queues the
// coarse RTBH-equivalent fallback instead of rejecting outright.
func (c *Controller) installFailedLocked(op queuedOp, err error, now float64) []Event {
	m := op.m
	m.pendingInstalls--
	// Only this generation's own bookkeeping may be marked failed, and a
	// failed install never clobbers ruleInstalled: that status mirrors
	// the physical port (an earlier generation's rule is still installed
	// — core.ErrRuleExists is how this attempt finds out), and the
	// removal paired with it checks for ruleInstalled before touching
	// the hardware. Overwriting would make that removal skip and orphan
	// the physical rule.
	if e, ok := c.rules[op.change.RuleID]; !ok || (e.owner == m && e.status != ruleInstalled) {
		c.rules[op.change.RuleID] = ruleEntry{status: ruleFailed, owner: m}
	}
	m.LastError = err.Error()
	if op.upgrade {
		// The upgrade attempt failed: stay coarse, cool down before the
		// next headroom probe.
		m.upgradePending--
		if m.upgradePending == 0 {
			m.upgrading = false
		}
		m.nextUpgradeAt = now + c.cfg.Degrade.UpgradeCooldown
		return nil
	}
	if !op.coarse && c.degradeLocked(m, err, now) {
		return nil
	}
	if m.State == StatePending && m.pendingInstalls == 0 && m.okInstalls == 0 {
		// Every rule was refused (hardware admission control).
		m.State = StateRejected
		c.version++
		m.Version = c.version
		return []Event{{Type: EventRejected, Time: now, Mitigation: m.Mitigation}}
	}
	return nil
}

// degradeLocked queues the coarse fallback for a fine rule that failed
// on a hardware resource class. It reports whether a fallback is (now)
// in flight, which holds off rejection until the coarse attempt settles.
func (c *Controller) degradeLocked(m *mit, err error, now float64) bool {
	if !c.cfg.Degrade.Enabled || !resourceErr(err) || m.State.Final() {
		return false
	}
	coarseID := m.ID + CoarseRuleSuffix
	if st := c.rules[coarseID].status; st == ruleQueued || st == ruleInstalled {
		return true // fallback already queued or live (per-peer sibling got here first)
	}
	if len(m.fineOps) == 1 && m.fineMAC == 0 && m.fineL34 <= 1 &&
		m.Action == fabric.ActionDrop {
		// The spec already IS the coarse form; there is no lower rung.
		return false
	}
	m.pendingInstalls++
	m.RuleIDs = append(m.RuleIDs, coarseID)
	c.rules[coarseID] = ruleEntry{status: ruleQueued, owner: m}
	c.enqueueLocked(queuedOp{
		change: coarseChange(m.Spec), m: m, firstAt: now, coarse: true,
	})
	return true
}

// scanUpgradesLocked re-enqueues the failed fine rules of degraded
// mitigations whose cost now fits under the reported headroom (plus
// margin), in ID order; each started upgrade's cost is deducted from
// the local headroom view so one tick never oversubscribes.
func (c *Controller) scanUpgradesLocked(now float64) {
	deg := c.cfg.Degrade
	if !deg.Enabled || deg.Headroom == nil {
		return
	}
	var cands []*mit
	for _, m := range c.mits {
		if !m.State.Final() && m.Degraded && !m.upgrading && now >= m.nextUpgradeAt {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	mac, l34 := deg.Headroom()
	for _, m := range cands {
		var ops []core.ConfigChange
		needMAC, needL34 := 0, 0
		for _, ch := range m.fineOps {
			if c.rules[ch.RuleID].status == ruleInstalled {
				continue
			}
			ops = append(ops, ch)
			cm, cl := ch.Match.CriteriaCount()
			needMAC += cm
			needL34 += cl
		}
		if len(ops) == 0 {
			continue
		}
		if mac < needMAC+deg.MarginMAC || l34 < needL34+deg.MarginL34 {
			continue
		}
		mac -= needMAC
		l34 -= needL34
		m.upgrading = true
		m.upgradePending = len(ops)
		m.pendingInstalls += len(ops)
		for _, ch := range ops {
			c.rules[ch.RuleID] = ruleEntry{status: ruleQueued, owner: m}
			c.enqueueLocked(queuedOp{change: ch, m: m, firstAt: now, upgrade: true})
		}
	}
}

// Get returns a copy of the mitigation with the given ID.
func (c *Controller) Get(id string) (Mitigation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.mits[id]; ok {
		return m.Mitigation, true
	}
	return Mitigation{}, false
}

// List returns every mitigation, sorted by ID.
func (c *Controller) List() []Mitigation { return c.Snapshot().Mitigations }

// Snapshot returns the versioned store view.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Version: c.version, Mitigations: make([]Mitigation, 0, len(c.mits))}
	for _, m := range c.mits {
		s.Mitigations = append(s.Mitigations, m.Mitigation)
	}
	sortMitigations(s.Mitigations)
	return s
}

// Active returns the live (pending or active) mitigations, sorted by ID.
func (c *Controller) Active() []Mitigation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Mitigation, 0, len(c.mits))
	for _, m := range c.mits {
		if !m.State.Final() {
			out = append(out, m.Mitigation)
		}
	}
	sortMitigations(out)
	return out
}

// Prune drops final-state mitigations last touched before the given
// version, bounding store growth in long-running deployments.
func (c *Controller) Prune(beforeVersion uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, m := range c.mits {
		if m.State.Final() && m.Version < beforeVersion {
			delete(c.mits, id)
			n++
		}
	}
	return n
}

// Usage returns the mitigation's aggregated per-rule telemetry: live
// counters of installed rules plus the final counters of rules already
// removed. It requires a manager exposing counters (core.CounterSource).
func (c *Controller) Usage(id string) (Usage, error) {
	c.mu.Lock()
	m, ok := c.mits[id]
	if !ok {
		c.mu.Unlock()
		return Usage{}, fmt.Errorf("%w: %s", ErrUnknownMitigation, id)
	}
	u := m.accrued
	var live []string
	for _, rid := range m.RuleIDs {
		if c.rules[rid].status == ruleInstalled {
			live = append(live, rid)
		}
	}
	c.mu.Unlock()
	if len(live) > 0 {
		src, ok := c.cfg.Manager.(core.CounterSource)
		if !ok {
			return u, fmt.Errorf("mitctl: manager %q exposes no telemetry", c.cfg.Manager.Name())
		}
		for _, rid := range live {
			counters, err := src.Counters(rid)
			if err != nil {
				continue // racing a concurrent removal
			}
			u.add(counters.Snapshot())
		}
	}
	return u, nil
}

// PendingChanges returns the change-queue depth.
func (c *Controller) PendingChanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// AppliedChanges returns the count of successfully applied changes.
func (c *Controller) AppliedChanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// Errors returns the accumulated apply and channel-compilation errors
// (the most recent maxRetainedErrors of them; ErrorCount reports the
// lifetime total).
func (c *Controller) Errors() []core.ApplyError {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.ApplyError(nil), c.applyErrs...)
}

// ErrorCount returns the lifetime count of apply and compilation
// errors, unaffected by the Errors retention window. Pollers use the
// delta to log only errors they have not seen yet.
func (c *Controller) ErrorCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errTotal
}

// noteError records a channel-compilation failure (e.g. a SelCustom
// signal referencing a portal rule the member never defined) on the
// error log without creating a mitigation.
func (c *Controller) noteError(member string, target netip.Prefix, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteApplyErrLocked(core.ApplyError{
		Change: core.ConfigChange{Op: core.OpInstall, Member: member,
			RuleID: fmt.Sprintf("mit:%s:%s:?", member, target)},
		Err: err,
	})
}

// RequestFromPortal requests a mitigation from a customer-portal rule:
// the member's stored match template with the target prefix stamped in
// (the SelCustom flow of Section 4.3, minus the BGP leg).
func (c *Controller) RequestFromPortal(member string, customID uint32, target netip.Prefix, ttl, now float64) (Mitigation, error) {
	rule, err := c.cfg.Portal.Lookup(member, customID)
	if err != nil {
		return Mitigation{}, err
	}
	return c.Request(SpecFromPortalRule(rule, target, ttl), now)
}

func sortMitigations(ms []Mitigation) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
}
