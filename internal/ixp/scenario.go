package ixp

import (
	"fmt"
	"net/netip"

	"stellar/internal/engine"
	"stellar/internal/flowmon"
)

// Source produces flow-level offers per tick (attacks, benign services,
// trace replay). It is the engine's source contract under its
// historical ixp name.
type Source = engine.Source

// OfferAppender is an optional Source refinement: sources that can
// append their per-tick offers into a caller-owned buffer, costing no
// per-tick slice allocation in steady state.
type OfferAppender = engine.OfferAppender

// Event runs an action at the beginning of a tick — announcing a
// blackhole, escalating a rule, withdrawing a route. Scenario wraps it
// into an engine event bound to the scenario's IXP.
type Event struct {
	Tick int
	Name string
	Do   func(*IXP) error
}

// Sample is one tick of a victim port's time series — the measurements
// plotted in Figures 3(c) and 10(c).
type Sample = engine.Sample

// Victim is one monitored victim port of a multi-victim scenario: its
// own traffic sources, timed events and measurement pipeline.
type Victim struct {
	// Port names the victim's fabric port.
	Port string
	// Sources feed this victim's port each tick.
	Sources []Source
	// Events fire at the start of their tick (see Scenario.Run for the
	// cross-victim ordering guarantee).
	Events []Event
	// Monitor receives every flow delivered at the port as an
	// IPFIX-style record (bin = tick), streamed from the egress workers
	// into per-worker shards. Run creates one when nil. ActivePeers in
	// this victim's samples is the monitor's per-tick peer count
	// restricted to registered member MACs, so a monitor with
	// SampleEvery > 1 counts peers over the sampled records only.
	Monitor *flowmon.Collector
	// PeerMinBps overrides the scenario-wide active-peer threshold for
	// this victim (0 inherits Scenario.PeerMinBps).
	PeerMinBps float64
}

// VictimSeries is one victim's result: its per-tick samples and the
// monitor that collected its delivered flows.
type VictimSeries = engine.VictimSeries

// Scenario drives an IXP through a timed experiment against one or more
// victim ports concurrently. It is a thin façade over the engine
// stage-graph runtime (internal/engine): victims become a
// SourcesDriver, the IXP supplies the control and data planes, and the
// run executes as a double-buffered pipeline — tick N's monitoring
// overlaps tick N+1's traffic generation and egress — whose output is
// byte-identical to the serial ixp.Tick loop (pinned by tests). All
// victims advance in lockstep on the shared fabric tick: per tick,
// every due event fires, then all victims' offers egress in one
// parallel fabric pass whose delivered flows stream straight into each
// victim's monitor shards.
type Scenario struct {
	IXP   *IXP
	Ticks int
	Dt    float64
	// PeerMinBps is the delivered-rate threshold for counting a peer as
	// active (defaults to 1 kbps).
	PeerMinBps float64
	// Depth is the engine's in-flight tick bound (0: engine default).
	// Runs are byte-identical at every depth.
	Depth int
	// Workers sizes the engine's worker pool (0: GOMAXPROCS).
	Workers int

	// Victims are the monitored victim ports. Scenario-level Events
	// apply to the whole IXP and order before per-victim events within
	// the same tick.
	Victims []Victim
	Events  []Event
}

// Run executes the scenario and returns the first victim's per-tick
// samples — the single-victim view every figure driver uses. On an
// event error it returns the samples of the ticks completed before the
// failing event, alongside the error. Multi-victim callers use RunAll.
func (s *Scenario) Run() ([]Sample, error) {
	series, err := s.RunAll()
	if len(series) == 0 {
		return nil, err
	}
	return series[0].Samples, err
}

// RunAll executes the scenario and returns one series per victim, in
// Victims order. On an event error it returns the series of all ticks
// completed before the failing event (partial samples), alongside the
// error. Events of the same tick apply in insertion order — scenario
// events first, then per-victim events in victim order — exactly as the
// serial loop applied them.
func (s *Scenario) RunAll() ([]VictimSeries, error) {
	if s.Dt == 0 {
		s.Dt = 1
	}
	victims := s.Victims
	if len(victims) == 0 {
		return nil, fmt.Errorf("ixp: scenario has no victim (set Victims)")
	}

	seen := make(map[string]bool, len(victims))
	specs := make([]engine.VictimSpec, len(victims))
	sources := make([][]Source, len(victims))
	for i := range victims {
		v := &victims[i]
		if _, err := s.IXP.Fabric.PortByName(v.Port); err != nil {
			return nil, fmt.Errorf("ixp: victim port: %w", err)
		}
		if seen[v.Port] {
			return nil, fmt.Errorf("ixp: duplicate victim port %s", v.Port)
		}
		seen[v.Port] = true
		specs[i] = engine.VictimSpec{Port: v.Port, Monitor: v.Monitor, PeerMinBps: v.PeerMinBps}
		sources[i] = v.Sources
	}

	// The event timeline: scenario-level events first, then per-victim
	// events in victim order, wrapped to bind the scenario's IXP. The
	// engine applies same-tick events in this insertion order.
	var events []engine.Event
	appendEvents := func(evs []Event) {
		for _, e := range evs {
			ev, ix := e, s.IXP
			events = append(events, engine.Event{Tick: ev.Tick, Name: ev.Name, Do: func() error {
				return ev.Do(ix)
			}})
		}
	}
	appendEvents(s.Events)
	for i := range victims {
		appendEvents(victims[i].Events)
	}

	// Active peers count only MACs registered to IXP members, exactly as
	// the pre-streaming map-based ActivePeers did; stray source MACs in
	// the monitor do not inflate the series.
	eng := engine.New(engine.Config{
		Driver:       engine.NewSourcesDriver(specs, sources),
		Control:      s.IXP,
		DataPlane:    s.IXP,
		Events:       events,
		Ticks:        s.Ticks,
		Dt:           s.Dt,
		PeerMinBps:   s.PeerMinBps,
		MemberFilter: s.IXP.MemberFilter(),
		Depth:        s.Depth,
		Workers:      s.Workers,
	})
	return eng.Run()
}

// MeanDeliveredBps averages delivered rate over [from, to) ticks.
func MeanDeliveredBps(samples []Sample, from, to int) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Tick >= from && s.Tick < to {
			sum += s.DeliveredBps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanActivePeers averages the peer count over [from, to) ticks.
func MeanActivePeers(samples []Sample, from, to int) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Tick >= from && s.Tick < to {
			sum += float64(s.ActivePeers)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// VictimOwner finds the member owning the address (by registered
// prefix) — the destination port for attack traffic.
func (x *IXP) VictimOwner(addr netip.Addr) (string, error) {
	for name, m := range x.members {
		for _, p := range m.Prefixes {
			if p.Contains(addr) {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("ixp: no member owns %s", addr)
}
