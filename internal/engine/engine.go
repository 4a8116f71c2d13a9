// Package engine is the simulation's tick loop: the one loop every
// driver — synthetic attacks, trace replay, pulsing and carpet-bombing
// workloads, the figure experiments, the benchmark — executes through.
// Run calls five steps per tick, split across two goroutines:
//
//	events ─► control ─► traffic ─► fabric ─► monitor ─► report
//	   (spine, strictly tick-ordered)          (fold side, overlapped)
//
// Timed control-plane actions reach the loop only through
// Config.Events; a captured BGP stream becomes such events with
// ReplayEvents.
//
// The engine double-buffers ticks: batches of reused offer/flow buffers
// circulate through bounded channels between the spine and the fold
// side, so tick N's monitor and report steps overlap tick N+1's traffic
// generation and egress while the bounded free list provides
// backpressure (the spine cannot run more than Depth ticks ahead).
// Victims and member ports fan across one shared worker pool
// (fabric.Pool), bounding the whole pipeline by a single worker budget.
//
// Determinism: the spine serializes everything that mutates shared
// simulation state — events, the clock/change-queue tick, egress — in
// exactly the serial loop's order, so control-plane effects land with
// the paper's one-tick delay (an action signaled at the start of tick T
// is processed when the clock advances to (T+1)*Dt and takes effect in
// tick T's egress at the earliest, queue pacing permitting). The fold
// side only reads monitor bins the spine has finished writing, so its
// overlap with the next tick changes no observable number: engine runs
// are byte-identical to a serial ControlTick + EgressTick loop (pinned
// by tests).
//
// Failure model: a failing event or data plane, or a panic on the spine
// or the fold goroutine (one recover each), becomes that tick's error;
// Run returns it with the samples of every tick below it.
package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"stellar/internal/fabric"
	"stellar/internal/flowmon"
)

// peerMinBps is the delivered rate at which a peer counts as active.
const peerMinBps = 1e3

// Config assembles a run.
type Config struct {
	// Driver supplies the victims and their per-tick offers.
	Driver Driver
	// Control is the control-plane tick hook (nil: no control plane).
	Control Control
	// DataPlane egresses each tick's offers. Required.
	DataPlane DataPlane
	// Events are timed control-plane actions, applied on the spine at
	// the start of their tick. Same-tick events apply in list order.
	Events []Event
	// Ticks is the run length.
	Ticks int
	// Dt is the tick length in seconds (0: 1; negative or non-finite is
	// an error).
	Dt float64
	// MemberFilter returns the member set active-peer counting is
	// restricted to (nil: count every source). The spine calls it once
	// per tick, after the tick's events, and that tick's fold counts
	// under the set it returned, so a member joined by an event at tick
	// T counts from tick T on at every Depth. A set that has not changed
	// should be returned as the same value (see flowmon.Members): each
	// monitor asks a set about a peer once.
	MemberFilter func() flowmon.Members
	// Pool, when non-nil, is an externally owned worker pool the run
	// draws from instead of creating its own GOMAXPROCS-sized one; the
	// caller keeps ownership (the engine never closes it). This is how a
	// federation of engines shares one worker budget: N exchange
	// pipelines submit to the same fabric.Pool, so aggregate parallelism
	// stays bounded by one worker count instead of N of them.
	Pool *fabric.Pool
	// Depth is the number of in-flight ticks (0: 2 — double-buffered;
	// 1: fully serial, the determinism-debugging fallback). At 2 the one
	// fold goroutine overlaps tick N's monitor + report with tick N+1's
	// spine; beyond 2 it buys only buffer elasticity — a slow fold tick
	// stalls the spine later — never more fold parallelism.
	Depth int
	// Profile, when set, accumulates a StageProfile over the run —
	// per-step cumulative ns plus spine-wait/fold-wait counters — and
	// attaches it to every VictimSeries. Off (the default) costs
	// nothing on the tick path.
	Profile bool
}

// Engine executes a configured run. Engines are single-use: build with
// New, call Run once.
type Engine struct {
	cfg Config
}

// runFail records the run's first failure and the tick it struck: no
// tick at or past it folds, at any Depth, while backlog ticks below it
// still do (the partial-samples contract). "First" means earliest tick
// — the spine can fail tick T+1 before the fold goroutine fails tick T.
type runFail struct {
	tick int
	err  error
}

// Profile slot indices, in pipeline order (see StageProfile.Stages);
// stageNames holds their names.
const (
	profSlotControl = iota
	profSlotTraffic
	profSlotFabric
	profSlotMonitor
	profSlotReport
)

var stageNames = [...]string{"control", "traffic", "fabric", "monitor", "report"}

// New returns an engine for the configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// batch is one in-flight tick: its offers on the way down (traffic ->
// fabric) and its per-port reports and samples on the way back up
// (fabric -> monitor -> report). Batches are recycled through a bounded
// free list, so the offer buffers and sample scratch are reused across
// ticks — the steady-state tick allocates no fresh slices.
type batch struct {
	tick int
	// offers maps victim port -> the tick's offers; the slices alias
	// bufs, which the driver refills in place.
	offers  fabric.TickOffers
	bufs    [][]fabric.Offer
	reports map[string]PortReport
	// samples is the per-victim scratch the monitor step fills and the
	// report step appends to the run's series.
	samples []Sample
	// members is the member set the tick's peers are counted under,
	// taken on the spine after the tick's events (nil: every source).
	members flowmon.Members
}

// run is one Run's wiring: what the five steps read and write.
type run struct {
	cfg      Config // defaults applied
	pool     *fabric.Pool
	specs    []VictimSpec
	monitors []*flowmon.Collector // one per victim, specs order
	events   []Event
	prof     *StageProfile
	series   []VictimSeries

	// curTick backs the monitoring visitors: workers read it
	// only while the spine is blocked inside EgressTick, and only the
	// spine writes it, so it is race-free across the tick barrier even
	// while the previous tick's fold still runs.
	curTick     int
	victimIndex map[string]int
	visitors    []fabric.FlowVisitor // one per victim, specs order

	mu   sync.Mutex
	fail *runFail
}

// Run executes the run and returns one series per victim, in driver
// Victims order. On an error — a failing event, a failing data plane, a
// panicking step — it returns the series of every tick fully folded
// before the failure (partial samples), alongside the error.
func (e *Engine) Run() ([]VictimSeries, error) {
	r, err := wire(e.cfg)
	if err != nil {
		return nil, err
	}
	if r.pool == nil {
		r.pool = fabric.NewPool(0)
		defer r.pool.Close()
	}
	depth := r.cfg.Depth
	if depth <= 0 {
		depth = 2
	}
	free := make(chan *batch, depth)
	for i := 0; i < depth; i++ {
		free <- &batch{
			offers:  make(fabric.TickOffers, len(r.specs)),
			bufs:    make([][]fabric.Offer, len(r.specs)),
			samples: make([]Sample, len(r.specs)),
		}
	}
	work := make(chan *batch, depth)
	// Nothing is folded yet. The fold side advances each monitor's merge
	// horizon tick by tick from here: a horizon below the spine keeps
	// the bins written ahead of it in the monitor's peer window at any
	// Depth, and each advance retires the bin leaving the window on the
	// fold side, off the egress workers' observe path.
	for _, m := range r.monitors {
		m.SetMergeHorizon(-1)
	}

	var foldWG sync.WaitGroup
	foldWG.Add(1)
	go func() {
		defer foldWG.Done()
		r.fold(free, work)
	}()
	r.spine(free, work)

	// Stop the fold side. With the pipeline quiesced, lift the monitors'
	// merge horizons: per-peer counts stay readable for the monitor's
	// window of newest bins only, and every bin's roll-up for every
	// other accessor (TopSrcPorts over the whole series, partial reads
	// after an abort).
	close(work)
	foldWG.Wait()
	for _, m := range r.monitors {
		m.SetMergeHorizon(int(^uint(0) >> 1))
	}
	return r.series, r.firstErr()
}

// wire validates the configuration and builds the run's state.
func wire(cfg Config) (*run, error) {
	if cfg.DataPlane == nil {
		return nil, fmt.Errorf("engine: no data plane configured")
	}
	if cfg.Driver == nil {
		return nil, fmt.Errorf("engine: no driver configured")
	}
	if cfg.Ticks < 0 {
		return nil, fmt.Errorf("engine: negative Ticks %d", cfg.Ticks)
	}
	// A negative tick never comes up on the spine, and it would sort
	// ahead of every other event and block the timeline behind it.
	for _, ev := range cfg.Events {
		if ev.Tick < 0 {
			return nil, fmt.Errorf("engine: event %q at negative tick %d", ev.Name, ev.Tick)
		}
	}
	if cfg.Dt < 0 || math.IsNaN(cfg.Dt) || math.IsInf(cfg.Dt, 0) {
		return nil, fmt.Errorf("engine: Dt %v is not a non-negative finite tick length", cfg.Dt)
	}
	if cfg.Dt == 0 {
		cfg.Dt = 1
	}
	specs := append([]VictimSpec(nil), cfg.Driver.Victims()...)
	if len(specs) == 0 {
		return nil, fmt.Errorf("engine: driver has no victims")
	}
	r := &run{
		cfg:         cfg,
		pool:        cfg.Pool,
		specs:       specs,
		series:      make([]VictimSeries, len(specs)),
		victimIndex: make(map[string]int, len(specs)),
		monitors:    make([]*flowmon.Collector, len(specs)),
		visitors:    make([]fabric.FlowVisitor, len(specs)),
	}
	for i := range specs {
		if _, dup := r.victimIndex[specs[i].Port]; dup {
			return nil, fmt.Errorf("engine: duplicate victim port %s", specs[i].Port)
		}
		r.victimIndex[specs[i].Port] = i
		// A victim is one port, and a port hands its delivered flows
		// to the sink as one batch per tick.
		r.monitors[i] = flowmon.NewCollectorShards(1)
		sh := r.monitors[i].Shard(0)
		r.visitors[i] = func(delivered []fabric.Delivery) {
			sh.ObserveDelivered(r.curTick, delivered)
		}
	}
	// One deterministically ordered timeline: by tick, same-tick events
	// in list order.
	r.events = append([]Event(nil), cfg.Events...)
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].Tick < r.events[j].Tick })

	if cfg.Profile {
		r.prof = &StageProfile{Stages: make([]StageTiming, len(stageNames))}
		for i, name := range stageNames {
			r.prof.Stages[i].Name = name
		}
	}
	for i := range specs {
		r.series[i] = VictimSeries{
			Port:    specs[i].Port,
			Samples: make([]Sample, 0, cfg.Ticks),
			Monitor: r.monitors[i],
			Profile: r.prof,
		}
	}
	return r, nil
}

// spine runs the ticks strictly in order on the caller's goroutine: the
// tick's events, then its member set and control -> traffic -> fabric,
// then hands the batch to the fold side. It stops at the first failure,
// its own or the fold side's; a panic in an event or step is recovered
// into that tick's error.
func (r *run) spine(free, work chan *batch) {
	prof := r.prof
	tick, ei := 0, 0
	slot := -1 // profile slot of the running step; -1 while events run
	at := func() string {
		if slot < 0 {
			return fmt.Sprintf("event %q", r.events[ei].Name)
		}
		return stageNames[slot] + " stage"
	}
	defer func() {
		if p := recover(); p != nil {
			r.setErr(tick, fmt.Errorf("engine: %s at tick %d panicked: %v", at(), tick, p))
		}
	}()
	for ; tick < r.cfg.Ticks; tick++ {
		t0 := prof.now()
		b := <-free // backpressure: at most depth ticks in flight
		prof.addSpineWait(prof.since(t0))
		if r.firstErr() != nil {
			return
		}
		if prof != nil {
			prof.Ticks++
		}
		// Events fire after the previous tick's egress and before this
		// tick's clock advance — the serial loop's order.
		slot = -1
		for ; ei < len(r.events) && r.events[ei].Tick == tick; ei++ {
			if err := r.events[ei].Do(); err != nil {
				r.setErr(tick, fmt.Errorf("engine: %s at tick %d: %w", at(), tick, err))
				return
			}
		}
		b.tick = tick

		slot = profSlotControl
		t0 = prof.now()
		// The tick's member set, now that its events have applied.
		b.members = nil
		if r.cfg.MemberFilter != nil {
			b.members = r.cfg.MemberFilter()
		}
		if r.cfg.Control != nil {
			r.cfg.Control.ControlTick(tick, r.cfg.Dt)
		}
		t0 = prof.lap(slot, t0)

		slot = profSlotTraffic
		r.traffic(b)
		t0 = prof.lap(slot, t0)

		slot = profSlotFabric
		err := r.egress(b)
		prof.lap(slot, t0)
		if err != nil {
			r.setErr(tick, fmt.Errorf("engine: %s at tick %d: %w", at(), tick, err))
			return
		}
		work <- b
	}
}

// fold runs monitor -> report one tick at a time, in spine order, on the
// one fold goroutine. Every tick it receives is below any spine failure
// (the spine stops before sending the failed tick), so it folds them
// all. A panic fails its tick; the goroutine then only recycles batches
// until the spine closes work, so no later tick folds.
func (r *run) fold(free, work chan *batch) {
	prof := r.prof
	var b *batch
	slot := profSlotMonitor
	defer func() {
		if p := recover(); p != nil {
			r.setErr(b.tick, fmt.Errorf("engine: %s stage at tick %d panicked: %v", stageNames[slot], b.tick, p))
			free <- b
			for b := range work {
				free <- b
			}
		}
	}()
	t0 := prof.now()
	for b = range work {
		prof.addFoldWait(prof.since(t0))
		slot = profSlotMonitor
		t0 = prof.now()
		r.monitor(b)
		t0 = prof.lap(slot, t0)

		slot = profSlotReport
		for i := range r.series {
			r.series[i].Samples = append(r.series[i].Samples, b.samples[i])
		}
		prof.lap(slot, t0)
		free <- b
		t0 = prof.now()
	}
}

// traffic generates each victim's offers, fanning victims across the
// worker pool.
func (r *run) traffic(b *batch) {
	r.pool.Run(len(r.specs), func(_, i int) {
		b.bufs[i] = r.cfg.Driver.AppendOffers(i, b.bufs[i][:0], b.tick, r.cfg.Dt)
	})
	for i := range r.specs {
		b.offers[r.specs[i].Port] = b.bufs[i]
	}
}

// egress runs the tick's offers through the data plane, handing each
// victim port's delivered flows to its monitor as one batch.
func (r *run) egress(b *batch) error {
	r.curTick = b.tick
	reports, err := r.cfg.DataPlane.EgressTick(r.pool, b.offers, r.cfg.Dt, r.sink)
	b.reports = reports
	return err
}

// sink supplies a port's visitor for the tick: a victim's observes the
// port's batch into its collector under one lock; other ports
// are not monitored.
func (r *run) sink(worker int, port string) fabric.FlowVisitor {
	if vi, ok := r.victimIndex[port]; ok {
		return r.visitors[vi]
	}
	return nil
}

// monitor derives each victim's sample for the tick, including the
// active-peer count from its flow monitor under the member set the
// spine took for the tick. It runs on the fold side, overlapping the
// next tick's traffic and egress: before reading it moves each
// collector's merge horizon to the tick being folded, which keeps the
// tick's peers in the collector's window until this read and retires
// the bin leaving the window here rather than on the egress workers.
// Every bin's float sums are bit-identical to a serial run whatever
// the overlap: the collector counts each record into its bin as it
// arrives.
func (r *run) monitor(b *batch) {
	dt := r.cfg.Dt
	for i, spec := range r.specs {
		mon := r.monitors[i]
		mon.SetMergeHorizon(b.tick)
		rep := b.reports[spec.Port]
		b.samples[i] = Sample{
			Tick:                 b.tick,
			Time:                 float64(b.tick) * dt,
			OfferedBps:           rep.OfferedBytes * 8 / dt,
			DeliveredBps:         rep.Result.DeliveredBytes * 8 / dt,
			NulledBps:            rep.NulledBytes * 8 / dt,
			RuleDroppedBps:       rep.Result.RuleDroppedBytes * 8 / dt,
			ShaperDroppedBps:     rep.Result.ShaperDroppedBytes * 8 / dt,
			CongestionDroppedBps: rep.Result.CongestionDroppedBytes * 8 / dt,
			ActivePeers:          mon.PeerCount(b.tick, peerMinBps*dt/8, b.members),
		}
	}
}

// setErr records a failure at tick; the earliest tick wins, so the
// reported error and the series cutoff agree whichever of the spine and
// the fold goroutine reports first.
func (r *run) setErr(tick int, err error) {
	r.mu.Lock()
	if r.fail == nil || tick < r.fail.tick {
		r.fail = &runFail{tick: tick, err: err}
	}
	r.mu.Unlock()
}

// firstErr returns the recorded failure, if any.
func (r *run) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail == nil {
		return nil
	}
	return r.fail.err
}
