// Package faults is the deterministic fault-injection engine for the
// mitigation control plane: a seeded, JSON-serializable Plan of
// tick-windowed faults — hardware install failures, TCAM budget
// squeezes, change-queue stalls, BGP session flaps, and wire-level
// message loss/duplication/reordering — compiled into an Injector that
// hooks the codebase's existing seams:
//
//   - mitctl.Config.InstallHook (per-attempt install failures),
//   - hw.EdgeRouter.SetReserved (TCAM squeeze) and
//     mitctl.Controller.SetQueueStalled (queue stall) via tick windows,
//   - a bgppipe.RecordSource filter for capture replay (wire faults:
//     FilterSource, the one place they happen),
//   - one engine event per tick (Events) firing the tick windows on
//     the spine before each control tick.
//
// Every injected fault is recorded in an ordered log, so a run's report
// can say exactly what was done to it — and two runs with the same plan
// and seed inject byte-identically.
package faults

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"stellar/internal/bgppipe"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/hw"
	"stellar/internal/stats"
)

// Fault kinds.
const (
	// KindInstallFail fails hardware rule installs through the
	// controller's InstallHook. Prob is the per-attempt failure
	// probability (0 means 1.0); MaxFailures bounds the injected
	// failures (0: every attempt in the window fails — a persistent
	// fault; N>0: the first N attempts fail, then installs succeed — a
	// transient fault retries recover from). Error selects the failure
	// class ("f1", "f2", "qos", or "" for a generic transient error).
	// Removals are exempt, so injected failures never orphan hardware
	// state. Window bounds are engine ticks.
	KindInstallFail = "install_fail"
	// KindTCAMSqueeze reserves ReserveMAC/ReserveL34 hardware budget for
	// the window — the headroom collapse that forces the controller's
	// degradation ladder. Window bounds are engine ticks.
	KindTCAMSqueeze = "tcam_squeeze"
	// KindQueueStall freezes the controller's change queue for the
	// window: queued changes accumulate and drain when the stall lifts.
	// Window bounds are engine ticks.
	KindQueueStall = "queue_stall"
	// KindSessionFlap takes the named peer's session down at the window
	// start and back up at the end (Hooks.PeerDown / Hooks.PeerUp).
	// Window bounds are engine ticks.
	KindSessionFlap = "session_flap"
	// KindWireDrop drops replayed records with probability Prob. Window
	// bounds are record indices, not ticks.
	KindWireDrop = "wire_drop"
	// KindWireDuplicate re-delivers replayed records with probability
	// Prob (the duplicate follows the original and is not re-faulted).
	// Window bounds are record indices.
	KindWireDuplicate = "wire_duplicate"
	// KindWireDelay holds records back and releases them DelayMsgs
	// records later — bounded reordering. Window bounds are record
	// indices.
	KindWireDelay = "wire_delay"
)

// Error classes for KindInstallFail.
const (
	ErrorF1        = "f1"  // hw.ErrL34Exhausted
	ErrorF2        = "f2"  // hw.ErrMACExhausted
	ErrorQoS       = "qos" // hw.ErrQoSPoliciesExhausted
	ErrorTransient = ""    // ErrInjected
)

// ErrInjected is the generic transient failure KindInstallFail injects
// when no hardware error class is named.
var ErrInjected = errors.New("faults: injected transient install failure")

// Fault is one scheduled fault. From/To bound its active window
// half-open [From, To) — in engine ticks for control-plane faults, in
// replayed record indices for wire faults.
type Fault struct {
	Kind string `json:"kind"`
	From int    `json:"from"`
	To   int    `json:"to"`

	// Prob is the per-attempt / per-message injection probability for
	// install_fail, wire_drop and wire_duplicate (0 means 1.0).
	Prob float64 `json:"prob,omitempty"`

	// Error is the install_fail failure class (f1, f2, qos, "").
	Error string `json:"error,omitempty"`
	// MaxFailures bounds install_fail injections (0: unbounded).
	MaxFailures int `json:"max_failures,omitempty"`

	// ReserveMAC / ReserveL34 are the tcam_squeeze budget reservations.
	ReserveMAC int `json:"reserve_mac,omitempty"`
	ReserveL34 int `json:"reserve_l34,omitempty"`

	// Peer names the session_flap target.
	Peer string `json:"peer,omitempty"`

	// DelayMsgs is the wire_delay hold-back depth.
	DelayMsgs int `json:"delay_msgs,omitempty"`
}

// Plan is a seeded fault schedule. The zero plan injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Each fault draws from
	// its own seed-derived stream, so concurrent injection points never
	// perturb each other's outcomes.
	Seed   uint64  `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

var validKinds = map[string]bool{
	KindInstallFail: true, KindTCAMSqueeze: true, KindQueueStall: true,
	KindSessionFlap: true, KindWireDrop: true, KindWireDuplicate: true,
	KindWireDelay: true,
}

var validErrors = map[string]bool{
	ErrorF1: true, ErrorF2: true, ErrorQoS: true, ErrorTransient: true,
	"transient": true,
}

// Validate checks the plan's internal consistency.
func (p *Plan) Validate() error {
	for i, f := range p.Faults {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("faults: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		if !validKinds[f.Kind] {
			return fmt.Errorf("faults: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.From < 0 || f.To <= f.From {
			return fail("window [%d,%d) is empty", f.From, f.To)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fail("prob %v outside [0,1]", f.Prob)
		}
		switch f.Kind {
		case KindInstallFail:
			if !validErrors[f.Error] {
				return fail("unknown error class %q", f.Error)
			}
			if f.MaxFailures < 0 {
				return fail("negative max_failures")
			}
		case KindTCAMSqueeze:
			if f.ReserveMAC < 0 || f.ReserveL34 < 0 {
				return fail("negative reservation")
			}
			if f.ReserveMAC == 0 && f.ReserveL34 == 0 {
				return fail("reserves nothing")
			}
		case KindSessionFlap:
			if f.Peer == "" {
				return fail("no peer")
			}
		case KindWireDelay:
			if f.DelayMsgs <= 0 {
				return fail("delay_msgs must be positive")
			}
		}
	}
	return nil
}

// Hooks are the control-plane levers the injector pulls for tick-window
// faults. An unset hook makes its fault kind a no-op on the control
// plane; OnTick still records the edge in the injection log.
type Hooks struct {
	// SetReserved applies the accumulated TCAM reservation
	// (hw.EdgeRouter.SetReserved).
	SetReserved func(mac, l34 int)
	// SetStalled freezes/unfreezes the change queue
	// (mitctl.Controller.SetQueueStalled).
	SetStalled func(stalled bool)
	// PeerDown / PeerUp flap a session: down at window start, up (with
	// the peer's announcements restored) at window end.
	PeerDown func(peer string) error
	PeerUp   func(peer string) error
}

// Injection is one recorded fault activation.
type Injection struct {
	Seq int `json:"seq"`
	// At is the engine tick (control-plane faults) or the record index
	// (wire faults) the injection fired at.
	At     int    `json:"at"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Injector executes a plan. Build with NewInjector; wire its hooks into
// the run (InstallHook, Events, FilterSource) and read the injection
// log afterwards.
type Injector struct {
	plan  Plan
	hooks Hooks

	mu         sync.Mutex
	log        []Injection
	rngs       []*stats.Rand // one per fault: interleaving-independent draws
	failures   []int         // install_fail budget spent
	curTick    int           // spine's last announced tick (SetTick)
	resMAC     int           // accumulated squeeze reservation
	resL34     int
	stallDepth int
}

// NewInjector compiles a validated plan.
func NewInjector(plan Plan, hooks Hooks) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		plan:     plan,
		hooks:    hooks,
		rngs:     make([]*stats.Rand, len(plan.Faults)),
		failures: make([]int, len(plan.Faults)),
	}
	for i := range plan.Faults {
		inj.rngs[i] = stats.NewRand(plan.Seed + uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	return inj, nil
}

// record appends to the injection log. Callers hold inj.mu.
func (inj *Injector) record(at int, kind, detail string) {
	inj.log = append(inj.log, Injection{Seq: len(inj.log), At: at, Kind: kind, Detail: detail})
}

// Injections returns a copy of the ordered injection log.
func (inj *Injector) Injections() []Injection {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Injection(nil), inj.log...)
}

// OnTick fires the tick-windowed faults' edges: squeezes and stalls
// engage at From and release at To, flaps go down at From and up at To.
// Drive it once per tick on the control spine (Events does).
func (inj *Injector) OnTick(tick int) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i := range inj.plan.Faults {
		f := &inj.plan.Faults[i]
		start, end := tick == f.From, tick == f.To
		if !start && !end {
			continue
		}
		switch f.Kind {
		case KindTCAMSqueeze:
			if start {
				inj.resMAC += f.ReserveMAC
				inj.resL34 += f.ReserveL34
				inj.record(tick, f.Kind, fmt.Sprintf("reserve mac+%d l34+%d", f.ReserveMAC, f.ReserveL34))
			} else {
				inj.resMAC -= f.ReserveMAC
				inj.resL34 -= f.ReserveL34
				inj.record(tick, f.Kind, fmt.Sprintf("release mac-%d l34-%d", f.ReserveMAC, f.ReserveL34))
			}
			if inj.hooks.SetReserved != nil {
				inj.hooks.SetReserved(inj.resMAC, inj.resL34)
			}
		case KindQueueStall:
			if start {
				inj.stallDepth++
				inj.record(tick, f.Kind, "stall")
			} else {
				inj.stallDepth--
				inj.record(tick, f.Kind, "release")
			}
			if inj.hooks.SetStalled != nil {
				inj.hooks.SetStalled(inj.stallDepth > 0)
			}
		case KindSessionFlap:
			if start {
				inj.record(tick, f.Kind, "down "+f.Peer)
				if inj.hooks.PeerDown != nil {
					if err := inj.hooks.PeerDown(f.Peer); err != nil {
						return fmt.Errorf("faults: flap down %s: %w", f.Peer, err)
					}
				}
			} else {
				inj.record(tick, f.Kind, "up "+f.Peer)
				if inj.hooks.PeerUp != nil {
					if err := inj.hooks.PeerUp(f.Peer); err != nil {
						return fmt.Errorf("faults: flap up %s: %w", f.Peer, err)
					}
				}
			}
		}
	}
	return nil
}

// errorFor maps an install_fail class to its injected error.
func errorFor(class string) error {
	switch class {
	case ErrorF1:
		return hw.ErrL34Exhausted
	case ErrorF2:
		return hw.ErrMACExhausted
	case ErrorQoS:
		return hw.ErrQoSPoliciesExhausted
	}
	return ErrInjected
}

// InstallHook is the mitctl.Config.InstallHook implementation: it fails
// install attempts per the plan's active install_fail windows,
// evaluated against the tick the spine last announced (Events — or
// SetTick when driven manually).
func (inj *Injector) InstallHook(change core.ConfigChange, attempt int, now float64) error {
	if change.Op != core.OpInstall {
		return nil // removals always succeed: injected faults never orphan rules
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	tick := inj.curTick
	for i := range inj.plan.Faults {
		f := &inj.plan.Faults[i]
		if f.Kind != KindInstallFail || tick < f.From || tick >= f.To {
			continue
		}
		if f.MaxFailures > 0 && inj.failures[i] >= f.MaxFailures {
			continue
		}
		if p := f.Prob; p > 0 && p < 1 && inj.rngs[i].Float64() >= p {
			continue
		}
		inj.failures[i]++
		err := errorFor(f.Error)
		inj.record(tick, f.Kind, fmt.Sprintf("%s attempt %d: %v", change.RuleID, attempt, err))
		return err
	}
	return nil
}

// SetTick announces the current engine tick to the injector — the clock
// install_fail windows are evaluated against. Events calls it on the
// spine; manual harnesses (unit tests, serial loops) call it
// directly before Process.
func (inj *Injector) SetTick(tick int) {
	inj.mu.Lock()
	inj.curTick = tick
	inj.mu.Unlock()
}

// Events returns one engine event per tick of a ticks-long run that
// announces the tick (SetTick) and fires the tick windows (OnTick).
// Append them after the run's other events: the engine applies
// same-tick events in list order, so every window edge lands after the
// tick's other events and strictly before the control plane processes
// the tick.
func (inj *Injector) Events(ticks int) []engine.Event {
	evs := make([]engine.Event, ticks)
	for tick := range evs {
		evs[tick] = engine.Event{Tick: tick, Name: "faults", Do: func() error {
			inj.SetTick(tick)
			return inj.OnTick(tick)
		}}
	}
	return evs
}

// FilterSource wraps a replay record source with the plan's wire
// faults: records are dropped, duplicated or delayed by record index —
// replay with deterministic loss. Held records flush in order at EOF.
func (inj *Injector) FilterSource(src bgppipe.RecordSource) bgppipe.RecordSource {
	return &filteredSource{inj: inj, src: src}
}

type filteredSource struct {
	inj     *Injector
	src     bgppipe.RecordSource
	idx     int
	pending []bgppipe.Record // duplicates and released delays, FIFO
	held    []bgppipe.Record
	eof     bool
}

func (s *filteredSource) Next() (bgppipe.Record, error) {
	for {
		if len(s.pending) > 0 {
			rec := s.pending[0]
			s.pending = s.pending[1:]
			return rec, nil
		}
		if s.eof {
			if len(s.held) > 0 {
				rec := s.held[0]
				s.held = s.held[1:]
				return rec, nil
			}
			return bgppipe.Record{}, io.EOF
		}
		rec, err := s.src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				s.eof = true
				continue // flush held records, then EOF
			}
			return bgppipe.Record{}, err
		}
		idx := s.idx
		s.idx++
		if keep := s.apply(idx, rec); keep {
			return rec, nil
		}
	}
}

// apply runs the wire faults over one record; false means dropped or
// held.
func (s *filteredSource) apply(idx int, rec bgppipe.Record) bool {
	inj := s.inj
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i := range inj.plan.Faults {
		f := &inj.plan.Faults[i]
		if idx < f.From || idx >= f.To {
			continue
		}
		switch f.Kind {
		case KindWireDrop:
			if p := f.Prob; p > 0 && p < 1 && inj.rngs[i].Float64() >= p {
				continue
			}
			inj.record(idx, f.Kind, fmt.Sprintf("drop %s record %d", rec.Peer, idx))
			return false
		case KindWireDuplicate:
			if p := f.Prob; p > 0 && p < 1 && inj.rngs[i].Float64() >= p {
				continue
			}
			inj.record(idx, f.Kind, fmt.Sprintf("dup %s record %d", rec.Peer, idx))
			s.pending = append(s.pending, rec)
		case KindWireDelay:
			inj.record(idx, f.Kind, fmt.Sprintf("hold %s record %d", rec.Peer, idx))
			s.held = append(s.held, rec)
			if len(s.held) > f.DelayMsgs {
				s.pending = append(s.pending, s.held[0])
				s.held = s.held[1:]
			}
			return false
		}
	}
	return true
}
