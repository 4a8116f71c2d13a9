package ixp

import (
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// serialRunAll is the legacy serial tick loop, preserved as the
// determinism oracle: per tick, events fire, every victim's offers
// generate, then a synchronous ControlTick + EgressTick pair advances
// the clock, processes the control plane and egresses, with every step
// finishing before the next tick starts. The pipelined engine must
// reproduce its output byte for byte. It takes the engine's own input
// shapes (sources[i] feeds specs[i]; same-tick events apply in list
// order).
func serialRunAll(x *IXP, ticks int, dt float64, specs []engine.VictimSpec, sources [][]engine.Source, evs []engine.Event) ([]engine.VictimSeries, error) {
	type timedEvent struct {
		engine.Event
		seq int
	}
	var events []timedEvent
	for _, e := range evs {
		events = append(events, timedEvent{Event: e, seq: len(events)})
	}
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && (events[j-1].Tick > events[j].Tick ||
			(events[j-1].Tick == events[j].Tick && events[j-1].seq > events[j].seq)); j-- {
			events[j-1], events[j] = events[j], events[j-1]
		}
	}

	victims := append([]engine.VictimSpec(nil), specs...)
	series := make([]engine.VictimSeries, len(victims))
	for i := range victims {
		if victims[i].Monitor == nil {
			victims[i].Monitor = flowmon.NewCollector()
		}
		if victims[i].PeerMinBps == 0 {
			victims[i].PeerMinBps = 1e3
		}
		series[i] = engine.VictimSeries{Port: victims[i].Port, Monitor: victims[i].Monitor}
	}

	bufs := make([][]fabric.Offer, len(victims))
	offers := make(fabric.TickOffers, len(victims))
	curTick := new(int)
	visitorCache := make([][]fabric.FlowVisitor, len(victims))
	victimIndex := make(map[string]int, len(victims))
	for i := range victims {
		visitorCache[i] = make([]fabric.FlowVisitor, victims[i].Monitor.Shards())
		victimIndex[victims[i].Port] = i
	}
	sink := func(worker int, port string) fabric.FlowVisitor {
		vi, ok := victimIndex[port]
		if !ok {
			return nil
		}
		row := visitorCache[vi]
		slot := worker % len(row)
		if row[slot] == nil {
			sh := victims[vi].Monitor.Shard(worker)
			row[slot] = func(flow netpkt.FlowKey, _ uint64, bytes float64) {
				sh.ObserveFlow(*curTick, flow, bytes)
			}
		}
		return row[slot]
	}
	isMember := func(mac netpkt.MAC) bool {
		_, ok := x.MemberByMAC(mac)
		return ok
	}

	ei := 0
	for tick := 0; tick < ticks; tick++ {
		*curTick = tick
		for ei < len(events) && events[ei].Tick == tick {
			if err := events[ei].Do(); err != nil {
				return series, fmt.Errorf("ixp: event %q at tick %d: %w", events[ei].Name, tick, err)
			}
			ei++
		}
		for i := range victims {
			buf := bufs[i][:0]
			for _, src := range sources[i] {
				if ap, ok := src.(engine.OfferAppender); ok {
					buf = ap.AppendOffers(buf, tick, dt)
				} else {
					buf = append(buf, src.Offers(tick, dt)...)
				}
			}
			bufs[i] = buf
			offers[victims[i].Port] = buf
		}
		x.ControlTick(tick, dt)
		reports, err := x.EgressTick(nil, offers, dt, sink)
		if err != nil {
			return series, err
		}
		for i := range victims {
			rep := reports[victims[i].Port]
			series[i].Samples = append(series[i].Samples, engine.Sample{
				Tick:                 tick,
				Time:                 float64(tick) * dt,
				OfferedBps:           rep.OfferedBytes * 8 / dt,
				DeliveredBps:         rep.Result.DeliveredBytes * 8 / dt,
				NulledBps:            rep.NulledBytes * 8 / dt,
				RuleDroppedBps:       rep.Result.RuleDroppedBytes * 8 / dt,
				ShaperDroppedBps:     rep.Result.ShaperDroppedBytes * 8 / dt,
				CongestionDroppedBps: rep.Result.CongestionDroppedBytes * 8 / dt,
				ActivePeers:          victims[i].Monitor.PeerCountFunc(tick, victims[i].PeerMinBps*dt/8, isMember),
			})
		}
	}
	return series, nil
}

// TestEngineMatchesSerialLoop pins the pipelined engine to the legacy
// serial loop, byte for byte: every
// sample field — delivered, nulled, rule-dropped, shaper-dropped,
// congestion-dropped rates and the active-peer count — and the
// monitors' full per-bin series must be identical. Run with -race this
// also exercises the overlap of tick N's fold with tick N+1's egress.
func TestEngineMatchesSerialLoop(t *testing.T) {
	const nVictims, ticks = 3, 60
	build := func() (*IXP, []engine.VictimSpec, [][]engine.Source, []engine.Event) {
		x, members := buildTestIXP(t, 24, 1.0, true)
		specs := make([]engine.VictimSpec, nVictims)
		sources := make([][]engine.Source, nVictims)
		for v := 0; v < nVictims; v++ {
			rng := stats.NewRand(uint64(200 + v))
			target := victimAddr(members[v])
			peers := PeersOf(members[nVictims:])
			attack := traffic.NewAttack(traffic.VectorNTP, target, peers,
				float64(v+1)*5e8, 2, ticks-5, rng)
			web := traffic.NewWebService(target, peers[:5], 1e8, rng)
			specs[v] = engine.VictimSpec{Port: members[v].Name}
			sources[v] = []engine.Source{attack, web}
		}
		// Victim 0: classic RTBH on the /32 at tick 20.
		host0 := netip.PrefixFrom(victimAddr(members[0]), 32)
		name0 := members[0].Name
		events := []engine.Event{
			{Tick: 5, Name: "announce covering prefix", Do: func() error {
				return x.Announce(name0, members[0].Prefixes[0], nil, nil)
			}},
			{Tick: 20, Name: "RTBH /32", Do: func() error {
				return x.Announce(name0, host0, []bgp.Community{bgp.CommunityBlackhole}, nil)
			}},
		}
		// Victim 1: Stellar shape then escalate to drop — exercises the
		// mitigation queue, whose pacing depends on the control clock.
		host1 := netip.PrefixFrom(victimAddr(members[1]), 32)
		name1 := members[1].Name
		events = append(events,
			engine.Event{Tick: 8, Name: "announce covering prefix", Do: func() error {
				return x.Announce(name1, members[1].Prefixes[0], nil, nil)
			}},
			engine.Event{Tick: 25, Name: "shape NTP", Do: func() error {
				return x.Announce(name1, host1, nil, []core.RuleSpec{core.ShapeUDPSrcPort(123, 1e8)})
			}},
			engine.Event{Tick: 40, Name: "drop UDP", Do: func() error {
				return x.Announce(name1, host1, nil, []core.RuleSpec{core.DropProto(netpkt.ProtoUDP)})
			}},
		)
		return x, specs, sources, events
	}

	xs, specsS, sourcesS, eventsS := build()
	serialSeries, err := serialRunAll(xs, ticks, 1, specsS, sourcesS, eventsS)
	if err != nil {
		t.Fatal(err)
	}

	// Depth 1 is the fully serial pipeline; 2 the default double buffer;
	// 4 and 8 queue several batches for the fold goroutine. The pool is
	// pinned above 1 worker so traffic and egress fan out even on a
	// single-CPU host.
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			xe, specsE, sourcesE, eventsE := build()
			cfg := engineConfig(xe, ticks, specsE, sourcesE, eventsE...)
			pool := fabric.NewPool(4)
			defer pool.Close()
			cfg.Depth, cfg.Pool = depth, pool
			engineSeries, err := engine.New(cfg).Run()
			if err != nil {
				t.Fatal(err)
			}

			if len(engineSeries) != len(serialSeries) {
				t.Fatalf("series: %d vs %d", len(engineSeries), len(serialSeries))
			}
			for v := range serialSeries {
				got, want := engineSeries[v].Samples, serialSeries[v].Samples
				if len(got) != len(want) {
					t.Fatalf("victim %d: %d vs %d samples", v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("victim %d tick %d:\nengine %+v\nserial %+v", v, i, got[i], want[i])
					}
				}
				gb, gv := engineSeries[v].Monitor.Series()
				wb, wv := serialSeries[v].Monitor.Series()
				if fmt.Sprint(gb) != fmt.Sprint(wb) || fmt.Sprint(gv) != fmt.Sprint(wv) {
					t.Fatalf("victim %d: monitor series diverged\nengine %v %v\nserial %v %v", v, gb, gv, wb, wv)
				}
				if fmt.Sprint(engineSeries[v].Monitor.TopSrcPorts(4)) != fmt.Sprint(serialSeries[v].Monitor.TopSrcPorts(4)) {
					t.Fatalf("victim %d: top ports diverged", v)
				}
			}

			// The mitigation controllers converged to the same state too.
			if ge, gs := xe.Mitigations.AppliedChanges(), xs.Mitigations.AppliedChanges(); ge != gs {
				t.Fatalf("applied changes: engine %d, serial %d", ge, gs)
			}
		})
	}
}
