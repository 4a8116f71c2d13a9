// Package engine is the simulation's stage-graph runtime: the one tick
// loop every driver — synthetic attacks, trace replay, pulsing and
// carpet-bombing workloads, the figure experiments, the benchmark —
// executes through. Each simulation layer implements the Stage
// interface (Prepare / Run / Fold) and the engine wires five of them
// into a pipeline:
//
//	driver events ─► control ─► traffic ─► fabric ─► monitor ─► report
//	   (spine, strictly tick-ordered)          (fold side, overlapped)
//
// The engine double-buffers ticks: batches of reused offer/flow buffers
// circulate through bounded channels between the spine and the fold
// side, so tick N's monitoring and reporting stages overlap tick N+1's
// traffic generation and egress while the bounded free list provides
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
package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
)

// Config assembles a run.
type Config struct {
	// Driver supplies the victims and their per-tick offers.
	Driver Driver
	// Control is the control-plane tick hook (nil: no control plane).
	Control Control
	// DataPlane egresses each tick's offers. Required.
	DataPlane DataPlane
	// Events are timed control-plane actions, applied on the spine at
	// the start of their tick. Same-tick events apply in list order;
	// events of an Eventful driver follow them.
	Events []Event
	// Ticks is the run length.
	Ticks int
	// Dt is the tick length in seconds (default 1).
	Dt float64
	// PeerMinBps is the delivered-rate threshold for counting a peer as
	// active (default 1 kbps).
	PeerMinBps float64
	// MemberFilter restricts active-peer counting to accepted source
	// MACs (nil: count every source).
	MemberFilter func(netpkt.MAC) bool
	// Workers sizes the shared worker pool (0: GOMAXPROCS).
	Workers int
	// Pool, when non-nil, is an externally owned worker pool the run
	// draws from instead of creating its own; Workers is then ignored
	// and the caller keeps ownership (the engine never closes it). This
	// is how a federation of engines shares one worker budget: N
	// exchange pipelines submit to the same fabric.Pool, so aggregate
	// parallelism stays bounded by one worker count instead of N of
	// them.
	Pool *fabric.Pool
	// Depth is the number of in-flight ticks (0: 2 — double-buffered;
	// 1: fully serial, the determinism-debugging fallback). At 2 the one
	// fold goroutine overlaps tick N's monitor + report with tick N+1's
	// spine; beyond 2 it buys only buffer elasticity — a slow fold tick
	// stalls the spine later — never more fold parallelism.
	Depth int
	// Profile, when set, accumulates a StageProfile over the run —
	// per-stage cumulative ns plus spine-wait/fold-wait counters — and
	// attaches it to every VictimSeries. Off (the default) costs
	// nothing on the tick path.
	Profile bool
	// StageWrap, when non-nil, decorates every stage before wiring —
	// the fault-injection / instrumentation seam (e.g.
	// faults.Injector.WrapControl). The decoration runs inside the
	// engine's watchdog, so a wrapper's panics are isolated too.
	StageWrap func(Stage) Stage
	// StageTimeout arms the stage watchdog: a single stage Run
	// exceeding it (wall clock) aborts the run with a stall error
	// instead of hanging the pipeline. 0 disables stall detection
	// (panic isolation is always on).
	StageTimeout time.Duration
}

// Engine executes a configured run. Engines are single-use: build with
// New, call Run once.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	fail *runFail
}

// runFail records the run's first failure and the tick it struck: the
// fold side never runs or folds a tick at or past it, at any Depth,
// while backlog ticks below it still fold (the partial-samples
// contract). "First" means earliest tick — the spine can fail tick T+1
// before the fold goroutine fails tick T.
type runFail struct {
	tick int
	err  error
}

// Profile slot indices, in pipeline order (see StageProfile.Stages).
const (
	profSlotControl = iota
	profSlotTraffic
	profSlotFabric
	profSlotMonitor
	profSlotReport
)

// New returns an engine for the configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// timedEvent tags an event with its insertion order so same-tick events
// apply deterministically even across merged lists.
type timedEvent struct {
	Event
	seq int
}

// Run executes the run and returns one series per victim, in driver
// Victims order. On an error — a failing event or stage — it returns
// the series of every tick fully folded before the failure (partial
// samples), alongside the error.
func (e *Engine) Run() ([]VictimSeries, error) {
	cfg := e.cfg
	if cfg.DataPlane == nil {
		return nil, fmt.Errorf("engine: no data plane configured")
	}
	if cfg.Driver == nil {
		return nil, fmt.Errorf("engine: no driver configured")
	}
	if cfg.Ticks < 0 {
		return nil, fmt.Errorf("engine: negative Ticks %d", cfg.Ticks)
	}
	if cfg.Dt == 0 {
		cfg.Dt = 1
	}
	if cfg.PeerMinBps == 0 {
		cfg.PeerMinBps = 1e3
	}
	specs := append([]VictimSpec(nil), cfg.Driver.Victims()...)
	if len(specs) == 0 {
		return nil, fmt.Errorf("engine: driver has no victims")
	}
	seen := make(map[string]bool, len(specs))
	seenMon := make(map[*flowmon.Collector]bool, len(specs))
	monitors := make([]*flowmon.Collector, len(specs))
	for i := range specs {
		if seen[specs[i].Port] {
			return nil, fmt.Errorf("engine: duplicate victim port %s", specs[i].Port)
		}
		seen[specs[i].Port] = true
		if specs[i].Monitor == nil {
			specs[i].Monitor = flowmon.NewCollector()
		} else if seenMon[specs[i].Monitor] {
			// One collector under two victims would mix both ports'
			// delivered flows into the same bins, so each victim's
			// ActivePeers would count the other's peers.
			return nil, fmt.Errorf("engine: victim port %s shares its monitor with another victim", specs[i].Port)
		}
		seenMon[specs[i].Monitor] = true
		if specs[i].PeerMinBps == 0 {
			specs[i].PeerMinBps = cfg.PeerMinBps
		}
		monitors[i] = specs[i].Monitor
	}

	// Merge the configured and driver event lists into one
	// deterministically ordered timeline: (tick, insertion) order.
	events := make([]timedEvent, 0, len(cfg.Events))
	for _, ev := range cfg.Events {
		events = append(events, timedEvent{Event: ev, seq: len(events)})
	}
	if ed, ok := cfg.Driver.(Eventful); ok {
		for _, ev := range ed.Events() {
			events = append(events, timedEvent{Event: ev, seq: len(events)})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Tick != events[j].Tick {
			return events[i].Tick < events[j].Tick
		}
		return events[i].seq < events[j].seq
	})

	keep := cfg.MemberFilter
	if keep == nil {
		keep = func(netpkt.MAC) bool { return true }
	}

	// The stage graph. Spine stages run strictly tick-ordered on the
	// caller's goroutine; fold stages run on the fold goroutine,
	// overlapping the next tick's spine.
	ports := make([]string, len(specs))
	for i := range specs {
		ports[i] = specs[i].Port
	}
	serialGen := false
	if sg, ok := cfg.Driver.(SerialGenerator); ok {
		serialGen = sg.SerialGen()
	}
	traffic := &trafficStage{driver: cfg.Driver, ports: ports, serial: serialGen}
	control := &controlStage{ctl: cfg.Control}
	egress := newFabricStage(cfg.DataPlane, specs, monitors)
	monitor := &monitorStage{specs: specs, monitors: monitors, keep: keep}
	report := &reportStage{series: make([]VictimSeries, len(specs))}
	for i := range specs {
		report.series[i] = VictimSeries{
			Port:    specs[i].Port,
			Samples: make([]Sample, 0, cfg.Ticks),
			Monitor: monitors[i],
		}
	}
	spineStages := guard([]Stage{control, traffic, egress}, cfg.StageWrap, cfg.StageTimeout)
	foldStages := guard([]Stage{monitor, report}, cfg.StageWrap, cfg.StageTimeout)

	var prof *StageProfile
	if cfg.Profile {
		prof = &StageProfile{Stages: make([]StageTiming, 0, len(spineStages)+len(foldStages))}
		for _, st := range spineStages {
			prof.Stages = append(prof.Stages, StageTiming{Name: st.Name()})
		}
		for _, st := range foldStages {
			prof.Stages = append(prof.Stages, StageTiming{Name: st.Name()})
		}
	}
	for i := range report.series {
		report.series[i].Profile = prof
	}

	pool := cfg.Pool
	if pool == nil {
		pool = fabric.NewPool(cfg.Workers)
		defer pool.Close()
	}

	depth := cfg.Depth
	if depth <= 0 {
		depth = 2
	}
	free := make(chan *Batch, depth)
	for i := 0; i < depth; i++ {
		b := &Batch{
			Offers:  make(fabric.TickOffers, len(specs)),
			bufs:    make([][]fabric.Offer, len(specs)),
			samples: make([]Sample, len(specs)),
		}
		free <- b
	}
	work := make(chan *Batch, depth)

	// Fold side: one goroutine runs monitor + report one tick at a time,
	// in spine order, at every Depth.
	var foldWG sync.WaitGroup
	foldWG.Add(1)
	go func() {
		defer foldWG.Done()
		for {
			t0 := prof.now()
			b, ok := <-work
			if !ok {
				return
			}
			prof.addFoldWait(prof.since(t0))
			tick := b.ctx.Tick
			if !e.errBefore(tick) {
				for si, st := range foldStages {
					rt := prof.now()
					err := st.Run(&b.ctx, b, b)
					prof.addNs(profSlotMonitor+si, prof.since(rt))
					if err != nil {
						e.setErr(tick, fmt.Errorf("engine: %s stage at tick %d: %w", st.Name(), tick, err))
						break
					}
				}
			}
			if !e.errBefore(tick) {
				for _, st := range foldStages {
					st.Fold(tick)
				}
			}
			free <- b
		}
	}()

	// drain stops the fold side and truncates every series to the ticks
	// that fully folded, preserving the serial loop's partial-samples
	// contract. With the pipeline quiesced it also lifts the monitors'
	// merge horizons, so post-run accessor reads (TopSrcPorts over the
	// whole series, partial reads after an abort) see every bin.
	drain := func() []VictimSeries {
		close(work)
		foldWG.Wait()
		for _, m := range monitors {
			m.SetMergeHorizon(int(^uint(0) >> 1))
		}
		series := report.series
		for i := range series {
			if len(series[i].Samples) > report.folded {
				series[i].Samples = series[i].Samples[:report.folded]
			}
		}
		return series
	}

	ei := 0
	for tick := 0; tick < cfg.Ticks; tick++ {
		t0 := prof.now()
		b := <-free // backpressure: at most depth ticks in flight
		prof.addSpineWait(prof.since(t0))
		if err := e.firstErr(); err != nil {
			return drain(), err
		}
		if prof != nil {
			prof.Ticks++
		}
		// Events fire on the spine, after the previous tick's egress and
		// before this tick's clock advance — the serial loop's order.
		for ei < len(events) && events[ei].Tick == tick {
			if err := events[ei].Do(); err != nil {
				err = fmt.Errorf("engine: event %q at tick %d: %w", events[ei].Name, tick, err)
				e.setErr(tick, err)
				return drain(), err
			}
			ei++
		}
		b.ctx = Ctx{Tick: tick, Dt: cfg.Dt, Pool: pool}
		for _, st := range spineStages {
			st.Prepare(tick)
		}
		for si, st := range spineStages {
			rt := prof.now()
			err := st.Run(&b.ctx, b, b)
			prof.addNs(profSlotControl+si, prof.since(rt))
			if err != nil {
				err = fmt.Errorf("engine: %s stage at tick %d: %w", st.Name(), tick, err)
				e.setErr(tick, err)
				return drain(), err
			}
		}
		for _, st := range spineStages {
			st.Fold(tick)
		}
		work <- b
	}
	series := drain()
	return series, e.firstErr()
}

// setErr records a failure at tick; the earliest tick wins, so the
// reported error and the fold cutoff agree whichever of the spine and
// the fold goroutine reports first.
func (e *Engine) setErr(tick int, err error) {
	e.mu.Lock()
	if e.fail == nil || tick < e.fail.tick {
		e.fail = &runFail{tick: tick, err: err}
	}
	e.mu.Unlock()
}

// firstErr returns the recorded failure, if any.
func (e *Engine) firstErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fail == nil {
		return nil
	}
	return e.fail.err
}

// errBefore reports whether a failure struck at or before tick — the
// fold side's gate: such a tick is neither run nor folded, while ticks
// below the failure still fold (partial samples).
func (e *Engine) errBefore(tick int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fail != nil && e.fail.tick <= tick
}
