// Package conformance turns mitigation scenarios into data: a Profile
// declares a topology (member population, victims, port capacities), a
// driver schedule (synthetic, pulse, carpet-bombing, trace and
// MRT-replay compositions with event timelines), the mitigation channel
// under test (API, BGP communities, FlowSpec, portal, plain RTBH) and a
// set of declarative expectations — victim drop ratio, collateral
// damage bounds on non-target prefixes, mitigation reaction time in
// ticks, TTL expiry/refresh behavior, active-peer floors. The Runner
// compiles a profile into an engine run over a fully wired ixp.IXP and
// evaluates the expectations into a structured Report.
//
// Profiles live as JSON files under profiles/ (embedded); the whole set
// executes as a matrix both under `go test` (TestMatrix, parallel,
// -race-clean) and outside it (`stellar-lab conformance`), making the
// paper's claim — fine-grained blackholing mitigates attacks with
// bounded collateral damage — a regression net instead of a handful of
// hand-rolled experiment loops.
package conformance

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"stellar/internal/core"
	"stellar/internal/faults"
	"stellar/internal/traffic"
)

//go:embed profiles/*.json
var profilesFS embed.FS

// Profile is one declarative conformance scenario.
type Profile struct {
	// Name identifies the profile in reports and test names.
	Name string `json:"name"`
	// Description says what claim the profile checks.
	Description string `json:"description,omitempty"`
	// Channel is the mitigation signaling path under test: "api"
	// (direct controller request), "community" (Advanced Blackholing
	// extended communities over BGP), "flowspec" (RFC 5575 NLRI),
	// "portal" (customer-portal rule reference) or "rtbh" (plain
	// BLACKHOLE-community null-routing, no Stellar control plane).
	// Defaults to "api".
	Channel string `json:"channel,omitempty"`

	Topology Topology `json:"topology"`
	Run      RunSpec  `json:"run"`

	// Victims are the monitored victim ports, each a member of the
	// population with its own traffic source composition.
	Victims []VictimProfile `json:"victims"`

	// Carpet turns the victims' "carpet_attack" sources into carpet
	// bombing: the attack rotates across the victims while "background"
	// sources stay on.
	Carpet *CarpetSpec `json:"carpet,omitempty"`

	// Replay schedules a synthesized MRT capture onto the control
	// spine: each record is a BGP announcement/withdrawal a member
	// makes at a capture timestamp, resampled onto the tick clock —
	// the control plane driven from wire-format history.
	Replay *ReplaySpec `json:"replay,omitempty"`

	// Events is the mitigation/control timeline, applied at the start
	// of their tick in list order.
	Events []EventSpec `json:"events,omitempty"`

	// Faults is the deterministic fault-injection schedule the run
	// executes (internal/faults): install failures, TCAM squeezes,
	// queue stalls, session flaps, replay wire loss. The injections are
	// recorded in the profile's report.
	Faults *FaultsSpec `json:"faults,omitempty"`

	// Expect is the declarative outcome contract the run must satisfy.
	Expect []Expectation `json:"expect"`
}

// Topology sizes the exchange.
type Topology struct {
	// Members is the population size.
	Members int `json:"members"`
	// HonoringFraction of members act on RTBH signals (~0.3 in the
	// paper).
	HonoringFraction float64 `json:"honoring_fraction"`
	// PortCapacityBps per member port (default 10 Gbps).
	PortCapacityBps float64 `json:"port_capacity_bps,omitempty"`
	// Seed drives population behaviour and traffic weights.
	Seed uint64 `json:"seed"`
	// Stellar enables the mitigation control plane (default true;
	// forced off for channel "rtbh").
	Stellar *bool `json:"stellar,omitempty"`
	// Retry enables change-queue retry with backoff (nil: failures are
	// terminal on the first attempt).
	Retry *RetrySpec `json:"retry,omitempty"`
	// InstallDeadlineSec bounds the time from a change's first enqueue
	// to a successful install (0: no deadline).
	InstallDeadlineSec float64 `json:"install_deadline_sec,omitempty"`
	// Degrade enables the controller's fine→coarse→fine degradation
	// ladder.
	Degrade *DegradeSpec `json:"degrade,omitempty"`
}

// RetrySpec is the controller's retry/backoff policy.
type RetrySpec struct {
	MaxAttempts  int     `json:"max_attempts"`
	BaseDelaySec float64 `json:"base_delay_sec,omitempty"`
	MaxDelaySec  float64 `json:"max_delay_sec,omitempty"`
	Jitter       float64 `json:"jitter,omitempty"`
}

// DegradeSpec enables the degradation ladder with its headroom margins.
type DegradeSpec struct {
	MarginMAC          int     `json:"margin_mac,omitempty"`
	MarginL34          int     `json:"margin_l34,omitempty"`
	UpgradeCooldownSec float64 `json:"upgrade_cooldown_sec,omitempty"`
}

// FaultsSpec is the profile's fault-injection schedule.
type FaultsSpec struct {
	// Seed drives the injector's probabilistic decisions (0: derived
	// from topology.seed).
	Seed       uint64      `json:"seed,omitempty"`
	Injections []FaultSpec `json:"injections"`
}

// FaultSpec is one scheduled fault (see internal/faults for the kind
// semantics). From/To bound the window in ticks for control-plane
// faults and in replay record indices for wire faults.
type FaultSpec struct {
	Kind string `json:"kind"`
	From int    `json:"from"`
	To   int    `json:"to"`

	Prob        float64 `json:"prob,omitempty"`
	Error       string  `json:"error,omitempty"`
	MaxFailures int     `json:"max_failures,omitempty"`

	ReserveMAC int `json:"reserve_mac,omitempty"`
	ReserveL34 int `json:"reserve_l34,omitempty"`
	// LeaveMAC / LeaveL34 express a squeeze relative to the hardware
	// budget: reserve everything except this headroom. When set they
	// override ReserveMAC/ReserveL34.
	LeaveMAC *int `json:"leave_mac,omitempty"`
	LeaveL34 *int `json:"leave_l34,omitempty"`

	// Member indexes the population for session_flap.
	Member    int `json:"member,omitempty"`
	DelayMsgs int `json:"delay_msgs,omitempty"`
}

// RunSpec is the engine run shape.
type RunSpec struct {
	Ticks int `json:"ticks"`
}

// PeerRange selects the member slice [From, From+Count) as traffic
// peers.
type PeerRange struct {
	From  int `json:"from"`
	Count int `json:"count"`
}

// SourceSpec declares one traffic source.
type SourceSpec struct {
	// Kind is "attack" (amplification attack), "web" (benign web
	// service), "pulse" (an on/off-gated inner source) or "trace"
	// (rate-series replay with sampled port compositions).
	Kind string `json:"kind"`
	// Vector names the amplification vector for "attack" (ntp, dns,
	// ldap, memcached, chargen, port-0).
	Vector string `json:"vector,omitempty"`
	// RateBps is the aggregate rate ("attack" peak / "web" constant).
	RateBps float64 `json:"rate_bps,omitempty"`
	// StartTick / EndTick bound an attack; for "pulse" they are the
	// train's origin and end (0: never). "web" and "trace" take
	// neither.
	StartTick int `json:"start_tick,omitempty"`
	EndTick   int `json:"end_tick,omitempty"`
	// RampTicks overrides the attack ramp (nil: the generator's
	// default of 5; 0 starts at full rate).
	RampTicks *int `json:"ramp_ticks,omitempty"`
	// Peers carry the source's traffic.
	Peers PeerRange `json:"peers"`

	// OnTicks / OffTicks shape a "pulse" train around Src.
	OnTicks  int         `json:"on_ticks,omitempty"`
	OffTicks int         `json:"off_ticks,omitempty"`
	Src      *SourceSpec `json:"src,omitempty"`

	// RatesBps / SegmentTicks parameterize a "trace" replay.
	RatesBps     []float64 `json:"rates_bps,omitempty"`
	SegmentTicks int       `json:"segment_ticks,omitempty"`
}

// VictimProfile is one monitored victim.
type VictimProfile struct {
	// Member indexes the population; the victim's target address is
	// the first host of the member's first prefix.
	Member int `json:"member"`
	// Sources feed the victim each tick (driver mode "sources").
	Sources []SourceSpec `json:"sources,omitempty"`
	// CarpetAttack is this victim's rotating attack workload under a
	// Carpet profile; Background stays on every tick.
	CarpetAttack *SourceSpec  `json:"carpet_attack,omitempty"`
	Background   []SourceSpec `json:"background,omitempty"`
}

// CarpetSpec rotates the victims' carpet attacks.
type CarpetSpec struct {
	RotateTicks int `json:"rotate_ticks"`
	StartTick   int `json:"start_tick,omitempty"`
	// EndTick bounds the whole carpet (0: never ends).
	EndTick int `json:"end_tick,omitempty"`
}

// ReplaySpec synthesizes an MRT capture from declarative records and
// replays it onto the control spine through engine.ReplayEvents.
// Capture time plays at simulated speed, unclamped: a record whose
// at_sec lands past the run's last tick never fires.
type ReplaySpec struct {
	// StartTick is the tick the capture's first record lands on; it
	// must lie inside the run.
	StartTick int            `json:"start_tick,omitempty"`
	Records   []ReplayRecord `json:"records"`
}

// ReplayRecord is one captured BGP event: a member announcing (or
// withdrawing) a prefix AtSec seconds into the capture.
type ReplayRecord struct {
	AtSec  float64 `json:"at_sec"`
	Member int     `json:"member"`
	// TargetOf, when set, makes the prefix the /32 host route of that
	// victim's target address; otherwise the member's own first
	// prefix is announced.
	TargetOf *int `json:"target_of,omitempty"`
	// Blackhole attaches the BLACKHOLE community (RFC 7999).
	Blackhole bool `json:"blackhole,omitempty"`
	Withdraw  bool `json:"withdraw,omitempty"`
}

// MatchSpec is the declarative L3/L4 classification of a mitigation.
type MatchSpec struct {
	// Proto is "udp", "tcp" or empty (any).
	Proto   string `json:"proto,omitempty"`
	SrcPort *int   `json:"src_port,omitempty"`
	DstPort *int   `json:"dst_port,omitempty"`
}

// EventSpec is one timed control-plane action.
type EventSpec struct {
	Tick int `json:"tick"`
	// Action is "mitigate" (signal a mitigation on the profile's
	// channel), "withdraw" (retract the identical mitigation),
	// "rtbh" / "rtbh_withdraw" (BLACKHOLE /32 announce/withdraw), or
	// "announce_prefix" / "withdraw_prefix" (member churn: the
	// indexed member announces or withdraws its own first prefix).
	Action string `json:"action"`
	// Victim indexes Victims for mitigate/withdraw/rtbh actions.
	Victim int `json:"victim,omitempty"`
	// Member indexes the population for the churn actions.
	Member int `json:"member,omitempty"`

	Match MatchSpec `json:"match,omitempty"`
	// Effect is "drop" or "shape" (with RateBps).
	Effect  string  `json:"effect,omitempty"`
	RateBps float64 `json:"rate_bps,omitempty"`
	TTLSec  float64 `json:"ttl_sec,omitempty"`
	// Scope is "" / "all-peers" or "per-peer" (with Peers naming the
	// covered members).
	Scope string    `json:"scope,omitempty"`
	Peers PeerRange `json:"peers,omitempty"`
}

// Expectation is one declarative outcome check over a victim's series.
//
// Kinds:
//
//	drop_ratio      (offered-delivered)/offered over [From,To), in [Min,Max]
//	delivery_ratio  delivered/offered over [From,To), in [Min,Max] — the
//	                collateral-damage bound for non-target prefixes
//	delivered_bps   mean delivered rate over [From,To), in [Min,Max]
//	offered_bps     mean offered rate over [From,To), in [Min,Max]
//	nulled_bps      mean RTBH-nulled rate over [From,To), in [Min,Max]
//	active_peers    mean active-peer count over [From,To), in [Min,Max]
//	reaction        ticks from SignalTick until delivered <= ThresholdBps,
//	                at most MaxTicks — the mitigation reaction time
//	recovery        ticks from SignalTick until delivered >= ThresholdBps,
//	                at most MaxTicks — TTL expiry / withdrawal behavior
//	degraded        ticks from SignalTick until the controller degrades the
//	                victim's mitigation to its coarse fallback, at most
//	                MaxTicks — the degradation-ladder reaction
//	upgraded        ticks from SignalTick until the controller upgrades the
//	                victim's mitigation back to fine-grained, at most
//	                MaxTicks — recovery once headroom returns
type Expectation struct {
	Name   string `json:"name,omitempty"`
	Kind   string `json:"kind"`
	Victim int    `json:"victim,omitempty"`

	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Min / Max bound the measured value (nil: unbounded).
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`

	SignalTick   int     `json:"signal_tick,omitempty"`
	ThresholdBps float64 `json:"threshold_bps,omitempty"`
	MaxTicks     int     `json:"max_ticks,omitempty"`
}

// Channel and scope names profiles may use.
const (
	ChannelAPI       = "api"
	ChannelCommunity = "community"
	ChannelFlowSpec  = "flowspec"
	ChannelPortal    = "portal"
	ChannelRTBH      = "rtbh"

	ScopeAllPeers = "all-peers"
	ScopePerPeer  = "per-peer"
)

// Channels and actions the decoder accepts.
var (
	validChannels = map[string]bool{"": true, ChannelAPI: true, ChannelCommunity: true,
		ChannelFlowSpec: true, ChannelPortal: true, ChannelRTBH: true}
	validActions = map[string]bool{"mitigate": true, "withdraw": true,
		"rtbh": true, "rtbh_withdraw": true,
		"announce_prefix": true, "withdraw_prefix": true}
	validKinds = map[string]bool{"drop_ratio": true, "delivery_ratio": true,
		"delivered_bps": true, "offered_bps": true, "nulled_bps": true,
		"active_peers": true, "reaction": true, "recovery": true,
		"degraded": true, "upgraded": true}
	validFaultKinds = map[string]bool{faults.KindInstallFail: true,
		faults.KindTCAMSqueeze: true, faults.KindQueueStall: true,
		faults.KindSessionFlap: true, faults.KindWireDrop: true,
		faults.KindWireDuplicate: true, faults.KindWireDelay: true}
	validSourceKinds = map[string]bool{"attack": true, "web": true,
		"pulse": true, "trace": true}
)

// Decode parses one profile from JSON, rejecting unknown fields so a
// typo in a profile file fails loudly instead of silently relaxing the
// scenario. The decoded profile is validated.
func Decode(data []byte) (*Profile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("conformance: decode: %w", err)
	}
	// Exactly one JSON document per file.
	if dec.More() {
		return nil, fmt.Errorf("conformance: trailing data after profile document")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// stellarOn reports whether the profile runs the mitigation control
// plane.
func (p *Profile) stellarOn() bool {
	if p.Channel == "rtbh" {
		return p.Topology.Stellar != nil && *p.Topology.Stellar
	}
	return p.Topology.Stellar == nil || *p.Topology.Stellar
}

// Validate checks the profile's internal consistency: index ranges,
// known enums, channel expressibility, window sanity.
func (p *Profile) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("conformance: profile %q: %s", p.Name, fmt.Sprintf(format, args...))
	}
	if p.Name == "" {
		return fmt.Errorf("conformance: profile has no name")
	}
	if !validChannels[p.Channel] {
		return fail("unknown channel %q", p.Channel)
	}
	if p.Topology.Members <= 0 {
		return fail("topology.members must be positive")
	}
	if p.Topology.HonoringFraction < 0 || p.Topology.HonoringFraction > 1 {
		return fail("honoring_fraction %v outside [0,1]", p.Topology.HonoringFraction)
	}
	if r := p.Topology.Retry; r != nil {
		if r.MaxAttempts < 1 {
			return fail("retry.max_attempts must be at least 1")
		}
		if r.BaseDelaySec < 0 || r.MaxDelaySec < 0 || r.Jitter < 0 {
			return fail("retry has negative delay/jitter")
		}
	}
	if p.Topology.InstallDeadlineSec < 0 {
		return fail("install_deadline_sec negative")
	}
	if d := p.Topology.Degrade; d != nil {
		if d.MarginMAC < 0 || d.MarginL34 < 0 || d.UpgradeCooldownSec < 0 {
			return fail("degrade has negative margins/cooldown")
		}
	}
	if p.Run.Ticks <= 0 {
		return fail("run.ticks must be positive")
	}
	if len(p.Victims) == 0 {
		return fail("no victims")
	}
	seen := make(map[int]bool, len(p.Victims))
	for i, v := range p.Victims {
		if v.Member < 0 || v.Member >= p.Topology.Members {
			return fail("victim %d: member %d outside population [0,%d)", i, v.Member, p.Topology.Members)
		}
		if seen[v.Member] {
			return fail("victim %d: member %d already a victim", i, v.Member)
		}
		seen[v.Member] = true
		srcs := v.Sources
		if p.Carpet != nil {
			if len(v.Sources) > 0 {
				return fail("victim %d: sources and carpet mode are exclusive (use carpet_attack/background)", i)
			}
			srcs = append([]SourceSpec{}, v.Background...)
			if v.CarpetAttack != nil {
				srcs = append(srcs, *v.CarpetAttack)
			}
		} else if v.CarpetAttack != nil || len(v.Background) > 0 {
			return fail("victim %d: carpet_attack/background need a carpet section", i)
		}
		for j, s := range srcs {
			if err := p.validateSource(&s); err != nil {
				return fail("victim %d source %d: %v", i, j, err)
			}
		}
	}
	if c := p.Carpet; c != nil {
		if c.RotateTicks < 0 {
			return fail("carpet.rotate_ticks negative")
		}
		if c.StartTick < 0 || c.StartTick >= p.Run.Ticks {
			return fail("carpet start_tick %d outside run [0,%d)", c.StartTick, p.Run.Ticks)
		}
		if c.EndTick != 0 && c.EndTick <= c.StartTick {
			return fail("carpet window [%d,%d) is empty", c.StartTick, c.EndTick)
		}
	}
	if p.Replay != nil {
		if len(p.Replay.Records) == 0 {
			return fail("replay has no records")
		}
		if st := p.Replay.StartTick; st < 0 || st >= p.Run.Ticks {
			return fail("replay start_tick %d outside run [0,%d)", st, p.Run.Ticks)
		}
		for i, r := range p.Replay.Records {
			if r.Member < 0 || r.Member >= p.Topology.Members {
				return fail("replay record %d: member %d outside population", i, r.Member)
			}
			if r.TargetOf != nil && (*r.TargetOf < 0 || *r.TargetOf >= len(p.Victims)) {
				return fail("replay record %d: target_of %d outside victims", i, *r.TargetOf)
			}
			if r.AtSec < 0 {
				return fail("replay record %d: negative at_sec", i)
			}
		}
	}
	for i, ev := range p.Events {
		if !validActions[ev.Action] {
			return fail("event %d: unknown action %q", i, ev.Action)
		}
		if ev.Tick < 0 || ev.Tick >= p.Run.Ticks {
			return fail("event %d: tick %d outside run [0,%d)", i, ev.Tick, p.Run.Ticks)
		}
		switch ev.Action {
		case "mitigate", "withdraw", "rtbh", "rtbh_withdraw":
			if ev.Victim < 0 || ev.Victim >= len(p.Victims) {
				return fail("event %d: victim %d outside victims", i, ev.Victim)
			}
		case "announce_prefix", "withdraw_prefix":
			if ev.Member < 0 || ev.Member >= p.Topology.Members {
				return fail("event %d: member %d outside population", i, ev.Member)
			}
		}
		if ev.Action == "mitigate" || ev.Action == "withdraw" {
			if !p.stellarOn() {
				return fail("event %d: %s needs the Stellar control plane", i, ev.Action)
			}
			switch ev.Match.Proto {
			case "", "udp", "tcp":
			default:
				return fail("event %d: unknown proto %q", i, ev.Match.Proto)
			}
			for _, port := range []*int{ev.Match.SrcPort, ev.Match.DstPort} {
				if port != nil && (*port < 0 || *port > 65535) {
					return fail("event %d: port %d outside [0,65535]", i, *port)
				}
			}
			switch ev.Effect {
			case "drop":
			case "shape":
				if ev.RateBps <= 0 {
					return fail("event %d: shape needs a positive rate_bps", i)
				}
			default:
				return fail("event %d: effect %q is not drop/shape", i, ev.Effect)
			}
			switch ev.Scope {
			case "", ScopeAllPeers:
			case ScopePerPeer:
				if ev.Peers.Count <= 0 {
					return fail("event %d: per-peer scope lists no peers", i)
				}
				if err := p.validatePeers(ev.Peers); err != nil {
					return fail("event %d: %v", i, err)
				}
			default:
				return fail("event %d: unknown scope %q", i, ev.Scope)
			}
			if err := p.validateChannelMatch(ev); err != nil {
				return fail("event %d: %v", i, err)
			}
		}
	}
	if p.Faults != nil {
		if len(p.Faults.Injections) == 0 {
			return fail("faults section has no injections")
		}
		for i, f := range p.Faults.Injections {
			if !validFaultKinds[f.Kind] {
				return fail("fault %d: unknown kind %q", i, f.Kind)
			}
			if f.From < 0 || f.To <= f.From {
				return fail("fault %d: window [%d,%d) is empty", i, f.From, f.To)
			}
			if f.Prob < 0 || f.Prob > 1 {
				return fail("fault %d: prob %v outside [0,1]", i, f.Prob)
			}
			switch f.Kind {
			case faults.KindInstallFail, faults.KindTCAMSqueeze, faults.KindQueueStall:
				if !p.stellarOn() {
					return fail("fault %d: %s needs the Stellar control plane", i, f.Kind)
				}
				if f.From >= p.Run.Ticks {
					return fail("fault %d: window starts past the run", i)
				}
				if f.Kind == faults.KindTCAMSqueeze &&
					f.ReserveMAC == 0 && f.ReserveL34 == 0 && f.LeaveMAC == nil && f.LeaveL34 == nil {
					return fail("fault %d: tcam_squeeze reserves nothing", i)
				}
			case faults.KindSessionFlap:
				if f.Member < 0 || f.Member >= p.Topology.Members {
					return fail("fault %d: member %d outside population", i, f.Member)
				}
				if f.From >= p.Run.Ticks {
					return fail("fault %d: window starts past the run", i)
				}
			case faults.KindWireDrop, faults.KindWireDuplicate, faults.KindWireDelay:
				if p.Replay == nil {
					return fail("fault %d: wire faults need a replay section", i)
				}
				if f.Kind == faults.KindWireDelay && f.DelayMsgs <= 0 {
					return fail("fault %d: wire_delay needs positive delay_msgs", i)
				}
			}
		}
	}
	if len(p.Expect) == 0 {
		return fail("no expectations")
	}
	for i, e := range p.Expect {
		if !validKinds[e.Kind] {
			return fail("expect %d: unknown kind %q", i, e.Kind)
		}
		if e.Victim < 0 || e.Victim >= len(p.Victims) {
			return fail("expect %d: victim %d outside victims", i, e.Victim)
		}
		if (e.Kind == "degraded" || e.Kind == "upgraded") && !p.stellarOn() {
			return fail("expect %d: %s needs the Stellar control plane", i, e.Kind)
		}
		switch e.Kind {
		case "reaction", "recovery", "degraded", "upgraded":
			if e.SignalTick < 0 || e.SignalTick >= p.Run.Ticks {
				return fail("expect %d: signal_tick %d outside run", i, e.SignalTick)
			}
			if e.MaxTicks <= 0 {
				return fail("expect %d: %s needs max_ticks", i, e.Kind)
			}
		default:
			if e.From < 0 || e.To > p.Run.Ticks || e.From >= e.To {
				return fail("expect %d: window [%d,%d) outside run [0,%d]", i, e.From, e.To, p.Run.Ticks)
			}
			if e.Min == nil && e.Max == nil {
				return fail("expect %d: no min/max bound", i)
			}
			if e.Min != nil && e.Max != nil && *e.Min > *e.Max {
				return fail("expect %d: min %v > max %v", i, *e.Min, *e.Max)
			}
		}
	}
	return nil
}

// validateSource checks one source spec (recursively for pulse).
func (p *Profile) validateSource(s *SourceSpec) error {
	if !validSourceKinds[s.Kind] {
		return fmt.Errorf("unknown source kind %q", s.Kind)
	}
	switch s.Kind {
	case "attack":
		if _, err := traffic.VectorByName(s.Vector); err != nil {
			return err
		}
		if s.RateBps <= 0 {
			return fmt.Errorf("attack needs a positive rate_bps")
		}
		if s.EndTick <= s.StartTick {
			return fmt.Errorf("attack window [%d,%d) is empty", s.StartTick, s.EndTick)
		}
		return p.validatePeers(s.Peers)
	case "web":
		if s.RateBps <= 0 {
			return fmt.Errorf("web needs a positive rate_bps")
		}
		if s.StartTick != 0 || s.EndTick != 0 {
			return fmt.Errorf("web takes no start_tick/end_tick window")
		}
		return p.validatePeers(s.Peers)
	case "pulse":
		if s.Src == nil {
			return fmt.Errorf("pulse has no inner src")
		}
		if s.OnTicks <= 0 {
			return fmt.Errorf("pulse needs positive on_ticks")
		}
		if s.OffTicks < 0 {
			return fmt.Errorf("pulse off_ticks negative")
		}
		if s.EndTick != 0 && s.EndTick <= s.StartTick {
			return fmt.Errorf("pulse window [%d,%d) is empty", s.StartTick, s.EndTick)
		}
		return p.validateSource(s.Src)
	case "trace":
		if len(s.RatesBps) == 0 {
			return fmt.Errorf("trace has no rates_bps series")
		}
		if s.StartTick != 0 || s.EndTick != 0 {
			return fmt.Errorf("trace takes no start_tick/end_tick window")
		}
		// The runner expands every segment rate across its ticks, so a
		// segment longer than the run only inflates that series.
		if s.SegmentTicks > p.Run.Ticks {
			return fmt.Errorf("trace segment_ticks %d exceeds the run's %d ticks", s.SegmentTicks, p.Run.Ticks)
		}
		return p.validatePeers(s.Peers)
	}
	return nil
}

func (p *Profile) validatePeers(r PeerRange) error {
	// Compare against the room left above From: From+Count can overflow.
	if r.From < 0 || r.Count <= 0 || r.Count > p.Topology.Members-r.From {
		return fmt.Errorf("peer range of %d from %d outside population [0,%d)", r.Count, r.From, p.Topology.Members)
	}
	return nil
}

// validateChannelMatch rejects mitigations the profile's channel cannot
// express, so a profile fails decode instead of silently testing a
// different request than declared.
func (p *Profile) validateChannelMatch(ev EventSpec) error {
	switch p.Channel {
	case "community":
		// The extended-community encoding (core.RuleSpec) expresses
		// proto-wide and single-port selectors; richer matches need
		// the portal (SelCustom) or another channel.
		if ev.Scope == ScopePerPeer {
			return fmt.Errorf("community channel cannot scope per-peer")
		}
		if ev.Match.Proto == "" {
			return fmt.Errorf("community channel needs an explicit proto")
		}
		if ev.Match.SrcPort != nil && ev.Match.DstPort != nil {
			return fmt.Errorf("community channel matches one port, not both")
		}
		if ev.TTLSec != 0 {
			return fmt.Errorf("community channel carries no TTL (a signal lives until its route is withdrawn)")
		}
		if ev.Effect == "shape" {
			code := int(ev.RateBps/core.ShapeRateUnitBps + 0.5)
			if code < 1 || code > 255 {
				return fmt.Errorf("shape rate %v outside the community encoding range", ev.RateBps)
			}
		}
	case "flowspec":
		if ev.Scope == ScopePerPeer {
			return fmt.Errorf("flowspec channel cannot scope per-peer")
		}
	case "rtbh":
		return fmt.Errorf("rtbh channel has no mitigate action (use action rtbh)")
	}
	return nil
}

// Profiles decodes every embedded profile, sorted by name.
func Profiles() ([]*Profile, error) {
	entries, err := fs.ReadDir(profilesFS, "profiles")
	if err != nil {
		return nil, err
	}
	out := make([]*Profile, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := fs.ReadFile(profilesFS, "profiles/"+e.Name())
		if err != nil {
			return nil, err
		}
		p, err := Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Load returns one embedded profile by name.
func Load(name string) (*Profile, error) {
	all, err := Profiles()
	if err != nil {
		return nil, err
	}
	for _, p := range all {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("conformance: no profile %q", name)
}
