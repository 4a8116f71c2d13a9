package engine

import (
	"sync/atomic"
	"time"

	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
)

// Ctx is the per-tick execution context handed to every stage: the tick
// index, the simulation time after the control stage advanced the
// clock, the tick length, and the shared worker pool stages fan work
// across (traffic generation across victims, egress across member
// ports). One Ctx lives inside each in-flight Batch, so two pipelined
// ticks never share one.
type Ctx struct {
	Tick int
	// Now is the post-advance simulation time of the tick; the control
	// stage sets it, downstream stages read it.
	Now float64
	Dt  float64
	// Pool is the run's shared worker pool. It accepts concurrent Run
	// submissions, so overlapping stages draw from one worker budget.
	Pool fabric.Runner
}

// Batch is the typed unit flowing through the stage graph: one tick's
// offers on the way down (traffic -> fabric) and its per-port reports
// and samples on the way back up (fabric -> monitor -> report). Batches
// are recycled through a bounded free list, so the offer buffers and
// sample scratch are reused across ticks — the steady-state tick
// allocates no fresh slices.
type Batch struct {
	ctx Ctx
	// Offers maps victim port -> the tick's offers; the slices alias
	// bufs, which AppendOffers-style sources refill in place.
	Offers fabric.TickOffers
	bufs   [][]fabric.Offer
	// Reports is the data plane's account of the tick, keyed by port.
	Reports map[string]PortReport
	// samples is the per-victim sample scratch the monitor stage fills
	// and the report stage folds into the run's series.
	samples []Sample
}

// Tick returns the batch's tick index.
func (b *Batch) Tick() int { return b.ctx.Tick }

// Stage is one layer of the simulation pipeline. The engine wires five
// of them — traffic generation, control plane, fabric egress, flow
// monitoring, reporting — into a stage graph and threads each tick's
// Batch through it.
//
// Prepare(tick) runs on the spine strictly before the tick's Run and
// after the previous tick's Run of every spine stage — per-tick setup
// (e.g. the fabric stage binds its monitoring sink to the tick) without
// synchronization. Run(ctx, in, out) does the tick's work: in carries
// the upstream payload, out receives the stage's product. The runtime
// currently threads one double-buffered batch through the whole graph,
// so in == out; stages must still respect the read/write split so the
// graph can be split across more buffers later. Fold(tick) runs after
// the tick's downstream consumption completed — the place to retire
// per-tick state (the report stage counts folded ticks here, which is
// what truncates the series when a run aborts mid-pipeline).
type Stage interface {
	Name() string
	Prepare(tick int)
	Run(ctx *Ctx, in, out *Batch) error
	Fold(tick int)
}

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

// StageProfile is the engine's cheap pipeline profile: per-stage
// cumulative wall time plus the two wait counters that localize the
// bottleneck. SpineWaitNs is time the spine spent blocked on the free
// list — it grows when the fold side cannot keep up, and Depth trades
// it for memory. FoldWaitNs is time the fold side spent waiting for
// work — it grows when the spine is the slow side. Counters are
// atomically accumulated; read them after Run returns.
type StageProfile struct {
	// Stages holds cumulative Run time per stage in pipeline order:
	// control, traffic, fabric, monitor, report.
	Stages []StageTiming `json:"stages"`
	// SpineWaitNs is cumulative spine time blocked on the free list.
	SpineWaitNs int64 `json:"spine_wait_ns"`
	// FoldWaitNs is cumulative fold-side time blocked waiting for work.
	FoldWaitNs int64 `json:"fold_wait_ns"`
	// Ticks is the number of ticks the spine issued.
	Ticks int `json:"ticks"`
}

// StageTiming is one stage's cumulative profile entry.
type StageTiming struct {
	Name string `json:"name"`
	// Ns is cumulative wall time inside the stage's Run.
	Ns int64 `json:"ns"`
	// Runs counts Run invocations.
	Runs int64 `json:"runs"`
}

// addNs accumulates d into stage slot i.
func (p *StageProfile) addNs(i int, d time.Duration) {
	if p == nil {
		return
	}
	atomic.AddInt64(&p.Stages[i].Ns, int64(d))
	atomic.AddInt64(&p.Stages[i].Runs, 1)
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

// Control is the control-plane hook the engine's control stage drives:
// advance the simulation clock by dt and apply everything that became
// due — drain the mitigation change queue (mitctl.Controller.Process),
// expire TTLs. It returns the post-advance simulation time. ixp.IXP
// implements it; a nil Control skips the stage (pure data-plane runs).
type Control interface {
	ControlTick(tick int, dt float64) float64
}

// DataPlane egresses one tick of offers: null-route filtering plus the
// fabric's per-port egress pass (fabric.Tick), fanning ports across the
// supplied runner and streaming delivered flows into the sink. ixp.IXP
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
// stage reuses one buffer per victim across ticks, so appending sources
// cost no per-tick slice allocation in steady state.
type OfferAppender interface {
	AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer
}

// Event runs a control-plane action at the beginning of a tick —
// announcing a blackhole, escalating a rule, withdrawing a route. Do
// closures execute on the control spine, strictly ordered between the
// previous tick's egress and this tick's clock advance, exactly as in
// the serial loop; they must not touch the victims' monitors (the
// previous tick's monitoring stage may still be folding).
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
// for distinct victims (the traffic stage fans victims across the
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

// Eventful drivers carry their own timed control-plane actions; the
// engine merges them (in order) after Config.Events of the same tick.
type Eventful interface {
	Events() []Event
}

// trafficStage generates each victim's offers, fanning victims across
// the worker pool (traffic.Attack/WebService/trace replay).
type trafficStage struct {
	driver Driver
	ports  []string
	serial bool
}

func (s *trafficStage) Name() string     { return "traffic" }
func (s *trafficStage) Prepare(tick int) {}
func (s *trafficStage) Fold(tick int)    {}
func (s *trafficStage) Run(ctx *Ctx, in, out *Batch) error {
	gen := func(_, i int) {
		out.bufs[i] = s.driver.AppendOffers(i, out.bufs[i][:0], ctx.Tick, ctx.Dt)
	}
	if s.serial {
		for i := range s.ports {
			gen(0, i)
		}
	} else {
		ctx.Pool.Run(len(s.ports), gen)
	}
	for i, port := range s.ports {
		out.Offers[port] = out.bufs[i]
	}
	return nil
}

// controlStage advances the clock and applies the control plane's due
// work (mitctl.Controller.Process; route-server batches arrive via the
// tick's events on the same spine).
type controlStage struct {
	ctl Control
}

func (s *controlStage) Name() string     { return "control" }
func (s *controlStage) Prepare(tick int) {}
func (s *controlStage) Fold(tick int)    {}
func (s *controlStage) Run(ctx *Ctx, in, out *Batch) error {
	if s.ctl != nil {
		ctx.Now = s.ctl.ControlTick(ctx.Tick, ctx.Dt)
	} else {
		ctx.Now = float64(ctx.Tick+1) * ctx.Dt
	}
	return nil
}

// fabricStage egresses the tick's offers (fabric.Tick via the
// DataPlane), streaming delivered flows into the victims' monitor
// shards.
type fabricStage struct {
	dp DataPlane
	// curTick backs the per-worker monitoring visitors: workers read it
	// only while the spine is blocked inside EgressTick, and only the
	// spine (Prepare) writes it, so it is race-free across the tick
	// barrier even while the previous tick's fold still runs.
	curTick     *int
	victimIndex map[string]int
	cache       [][]fabric.FlowVisitor
	monitors    []*flowmon.Collector
}

func newFabricStage(dp DataPlane, specs []VictimSpec, monitors []*flowmon.Collector) *fabricStage {
	s := &fabricStage{
		dp:          dp,
		curTick:     new(int),
		victimIndex: make(map[string]int, len(specs)),
		cache:       make([][]fabric.FlowVisitor, len(specs)),
		monitors:    monitors,
	}
	for i, spec := range specs {
		s.victimIndex[spec.Port] = i
		s.cache[i] = make([]fabric.FlowVisitor, monitors[i].Shards())
	}
	return s
}

func (s *fabricStage) Name() string     { return "fabric" }
func (s *fabricStage) Prepare(tick int) { *s.curTick = tick }
func (s *fabricStage) Fold(tick int)    {}

// sink supplies the per-(worker, port) visitors of the streaming tick;
// a (victim, worker) visitor is built once and reused every tick.
func (s *fabricStage) sink(worker int, port string) fabric.FlowVisitor {
	vi, ok := s.victimIndex[port]
	if !ok {
		return nil
	}
	row := s.cache[vi]
	slot := worker % len(row) // Shard wraps the same way
	if row[slot] == nil {
		sh := s.monitors[vi].Shard(worker)
		tick := s.curTick
		row[slot] = func(flow netpkt.FlowKey, _ uint64, bytes float64) {
			sh.ObserveFlow(*tick, flow, bytes)
		}
	}
	return row[slot]
}

func (s *fabricStage) Run(ctx *Ctx, in, out *Batch) error {
	reports, err := s.dp.EgressTick(ctx.Pool, in.Offers, ctx.Dt, s.sink)
	if err != nil {
		return err
	}
	out.Reports = reports
	return nil
}

// monitorStage folds the tick's monitoring view: it merges the flowmon
// shards (implicitly, through the collector accessors) and derives each
// victim's per-tick sample, including the active-peer count. It runs on
// the fold side of the pipeline, overlapping the next tick's traffic
// and egress: before reading it moves each collector's merge horizon to
// the tick being folded, so accessor merges drain only bins the spine
// finished writing — an in-flight bin is never split into partial
// flushes, which keeps every bin's float sums bit-identical to a serial
// run.
type monitorStage struct {
	specs    []VictimSpec
	monitors []*flowmon.Collector
	keep     func(netpkt.MAC) bool
}

func (s *monitorStage) Name() string     { return "monitor" }
func (s *monitorStage) Prepare(tick int) {}
func (s *monitorStage) Fold(tick int)    {}
func (s *monitorStage) Run(ctx *Ctx, in, out *Batch) error {
	dt := ctx.Dt
	for i := range s.specs {
		s.monitors[i].SetMergeHorizon(ctx.Tick)
		rep := in.Reports[s.specs[i].Port]
		out.samples[i] = Sample{
			Tick:                 ctx.Tick,
			Time:                 float64(ctx.Tick) * dt,
			OfferedBps:           rep.OfferedBytes * 8 / dt,
			DeliveredBps:         rep.Result.DeliveredBytes * 8 / dt,
			NulledBps:            rep.NulledBytes * 8 / dt,
			RuleDroppedBps:       rep.Result.RuleDroppedBytes * 8 / dt,
			ShaperDroppedBps:     rep.Result.ShaperDroppedBytes * 8 / dt,
			CongestionDroppedBps: rep.Result.CongestionDroppedBytes * 8 / dt,
			ActivePeers:          s.monitors[i].PeerCountFunc(ctx.Tick, s.specs[i].PeerMinBps*dt/8, s.keep),
		}
	}
	return nil
}

// reportStage appends the tick's samples to the run's series. Its Fold
// marks the tick fully retired — the counter that bounds the series
// when a run aborts with ticks still in flight.
type reportStage struct {
	series []VictimSeries
	folded int
}

func (s *reportStage) Name() string     { return "report" }
func (s *reportStage) Prepare(tick int) {}
func (s *reportStage) Fold(tick int)    { s.folded++ }
func (s *reportStage) Run(ctx *Ctx, in, out *Batch) error {
	for i := range s.series {
		s.series[i].Samples = append(s.series[i].Samples, in.samples[i])
	}
	return nil
}
