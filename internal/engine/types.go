package engine

import (
	"sync/atomic"
	"time"

	"stellar/internal/fabric"
	"stellar/internal/flowmon"
)

// PortReport summarizes one simulation tick at one destination port.
type PortReport struct {
	// OfferedBytes is the pre-mitigation attack+benign volume.
	OfferedBytes float64
	// NulledBytes died at the IXP null interface (RTBH honoring).
	NulledBytes float64
	// Result is the egress engine's account of the remainder.
	Result fabric.TickResult
}

// DeliveredBps converts the report to a rate.
func (r PortReport) DeliveredBps(dt float64) float64 { return r.Result.DeliveredBytes * 8 / dt }

// Sample is one tick of a victim port's time series — the measurements
// plotted in Figures 3(c) and 10(c).
type Sample struct {
	Tick                 int
	Time                 float64
	OfferedBps           float64
	DeliveredBps         float64
	NulledBps            float64 // RTBH null-routed at the IXP
	RuleDroppedBps       float64 // Stellar drop queue
	ShaperDroppedBps     float64 // Stellar shaping queue excess
	CongestionDroppedBps float64 // victim port overload
	ActivePeers          int
}

// VictimSeries is one victim's result: its per-tick samples and the
// monitor that collected its delivered flows.
type VictimSeries struct {
	Port    string
	Samples []Sample
	Monitor *flowmon.Collector
	// Profile is the run's pipeline profile when Config.Profile was set
	// (nil otherwise). All victims of a run share one profile — the
	// counters are per run, not per victim.
	Profile *StageProfile
}

// StageProfile is the engine's cheap pipeline profile: per-step
// cumulative wall time plus the two wait counters that localize the
// bottleneck. SpineWaitNs is time the spine spent blocked on the free
// list — it grows when the fold side cannot keep up, and Depth trades
// it for memory. FoldWaitNs is time the fold side spent waiting for
// work — it grows when the spine is the slow side. Counters are
// atomically accumulated; read them after Run returns.
type StageProfile struct {
	// Stages holds cumulative time per step in pipeline order:
	// control, traffic, fabric, monitor, report.
	Stages []StageTiming `json:"stages"`
	// SpineWaitNs is cumulative spine time blocked on the free list.
	SpineWaitNs int64 `json:"spine_wait_ns"`
	// FoldWaitNs is cumulative fold-side time blocked waiting for work.
	FoldWaitNs int64 `json:"fold_wait_ns"`
	// Ticks is the number of ticks the spine issued.
	Ticks int `json:"ticks"`
}

// StageTiming is one step's cumulative profile entry.
type StageTiming struct {
	Name string `json:"name"`
	// Ns is cumulative wall time inside the step.
	Ns int64 `json:"ns"`
	// Runs counts the step's calls.
	Runs int64 `json:"runs"`
}

// lap accumulates the time since t0 into slot i and returns the new
// timestamp — the start of the next step (zero when profiling is off).
func (p *StageProfile) lap(i int, t0 time.Time) time.Time {
	if p == nil {
		return time.Time{}
	}
	now := time.Now()
	atomic.AddInt64(&p.Stages[i].Ns, int64(now.Sub(t0)))
	atomic.AddInt64(&p.Stages[i].Runs, 1)
	return now
}

// addSpineWait accumulates spine time blocked on the free list.
func (p *StageProfile) addSpineWait(d time.Duration) {
	if p == nil {
		return
	}
	atomic.AddInt64(&p.SpineWaitNs, int64(d))
}

// addFoldWait accumulates fold-side blocked time.
func (p *StageProfile) addFoldWait(d time.Duration) {
	if p == nil {
		return
	}
	atomic.AddInt64(&p.FoldWaitNs, int64(d))
}

// since returns the elapsed time since t0 when profiling, else 0 — the
// zero-cost-when-off guard around every timestamp pair.
func (p *StageProfile) since(t0 time.Time) time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(t0)
}

// now returns a timestamp when profiling is on (zero Time otherwise).
func (p *StageProfile) now() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// Control is the control-plane hook the engine's control step drives:
// advance the simulation clock by dt and apply everything that became
// due — drain the mitigation change queue (mitctl.Controller.Process),
// expire TTLs. It returns the post-advance simulation time. ixp.IXP
// implements it; a nil Control skips the step (pure data-plane runs).
type Control interface {
	ControlTick(tick int, dt float64) float64
}

// DataPlane egresses one tick of offers: null-route filtering plus the
// fabric's per-port egress pass, fanning ports across the supplied
// runner and streaming delivered flows into the sink. ixp.IXP
// implements it.
type DataPlane interface {
	EgressTick(r fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]PortReport, error)
}

// Source produces flow-level offers per tick (attacks, benign services,
// trace replay). traffic.Attack, traffic.WebService and traffic.Trace
// implement it.
type Source interface {
	Offers(tick int, dtSeconds float64) []fabric.Offer
}

// OfferAppender is an optional Source refinement: sources that can
// append their per-tick offers into a caller-owned buffer. The traffic
// step reuses one buffer per victim across ticks, so appending sources
// cost no per-tick slice allocation in steady state.
type OfferAppender interface {
	AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer
}

// Event runs a control-plane action at the beginning of a tick —
// announcing a blackhole, escalating a rule, withdrawing a route. Do
// closures execute on the control spine, strictly ordered between the
// previous tick's egress and this tick's clock advance, exactly as in
// the serial loop; they must not touch the victims' monitors (the
// previous tick's monitor step may still be folding).
type Event struct {
	Tick int
	Name string
	Do   func() error
}

// VictimSpec names one monitored victim port of a run.
type VictimSpec struct {
	// Port names the victim's fabric port.
	Port string
	// Monitor receives every flow delivered at the port, streamed from
	// the egress workers into per-worker shards (bin = tick). The
	// engine creates one when nil.
	Monitor *flowmon.Collector
	// PeerMinBps overrides the run-wide active-peer threshold for this
	// victim (0 inherits Config.PeerMinBps).
	PeerMinBps float64
}

// Driver is a pluggable workload: it names the victim ports it targets
// and fills each tick's offers. AppendOffers may be called concurrently
// for distinct victims (the traffic step fans victims across the
// worker pool) unless the driver also implements SerialGenerator.
//
// Shipped drivers: SourcesDriver (synthetic attack, per-victim Source
// lists), NewTraceDriver (pcap-less trace replay over
// traffic.Trace), NewPulseDriver (on/off pulsing attack), and
// CarpetDriver (carpet bombing across rotating victim prefixes).
type Driver interface {
	Victims() []VictimSpec
	// AppendOffers appends victim v's offers for the tick to dst and
	// returns the grown slice.
	AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer
}

// SerialGenerator marks drivers whose AppendOffers must not run
// concurrently across victims — e.g. SourcesDriver when one Source
// instance feeds several victims.
type SerialGenerator interface {
	SerialGen() bool
}
