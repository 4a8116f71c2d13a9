package stellar_test

// Engine-pipeline benchmarks: the stage-graph runtime (internal/engine,
// double-buffered ticks on a shared worker pool) against the serial
// driver-pulled ixp.Tick loop — the pre-engine driver shape where every
// tick generates fresh offer slices, runs one synchronous ixp.Tick
// (materialized DeliveredByFlow maps), feeds a map-based collector one
// record per delivered flow and walks the map for the active-peer
// count, with every stage finishing before the next tick starts. Both
// run at GOMAXPROCS=4, the acceptance configuration; the bar is
// pipeline >= 1.5x serial, and TestEnginePipelineMatchesSerialTick pins
// the two paths to byte-identical per-tick delivered/dropped counters
// first, so the speedup is measured on provably equal work.

import (
	"fmt"
	"runtime"
	"testing"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/ixp"
	"stellar/internal/member"
)

// tickCounters is one victim-tick's data-plane account, the fields the
// equivalence assertion compares bit for bit.
type tickCounters struct {
	offered, nulled, delivered, ruleDrop, shapeDrop, congDrop float64
}

// serialTickLoop drives the workload through the serial ixp.Tick path
// and returns per-victim per-tick counters.
func serialTickLoop(tb testing.TB, x *ixp.IXP, members []*member.Member, sources [][]ixp.Source, ticks int) [][]tickCounters {
	tb.Helper()
	const peerMinBytes = 1e3 / 8
	out := make([][]tickCounters, scenarioBenchVictims)
	mons := make([]*flowmon.MapCollector, scenarioBenchVictims)
	for v := range out {
		out[v] = make([]tickCounters, 0, ticks)
		mons[v] = flowmon.NewMapCollector()
	}
	for tick := 0; tick < ticks; tick++ {
		offers := make(fabric.TickOffers, scenarioBenchVictims)
		for v := 0; v < scenarioBenchVictims; v++ {
			var os []fabric.Offer
			for _, src := range sources[v] {
				os = append(os, src.Offers(tick, 1)...)
			}
			offers[members[v].Name] = os
		}
		reports, err := x.Tick(offers, 1)
		if err != nil {
			tb.Fatal(err)
		}
		for v := 0; v < scenarioBenchVictims; v++ {
			rep := reports[members[v].Name]
			for flow, bytes := range rep.Result.DeliveredByFlow {
				mons[v].Observe(flowmon.Record{Bin: tick, Key: flow, Bytes: bytes})
			}
			_ = x.ActivePeers(rep.Result, peerMinBytes)
			out[v] = append(out[v], tickCounters{
				offered:   rep.OfferedBytes,
				nulled:    rep.NulledBytes,
				delivered: rep.Result.DeliveredBytes,
				ruleDrop:  rep.Result.RuleDroppedBytes,
				shapeDrop: rep.Result.ShaperDroppedBytes,
				congDrop:  rep.Result.CongestionDroppedBytes,
			})
		}
	}
	return out
}

// engineRun drives the identical workload through the stage-graph
// runtime at the given pipeline depth and pool size (0: the engine
// defaults) and converts the sample series back to per-tick counters.
func engineRun(tb testing.TB, x *ixp.IXP, members []*member.Member, sources [][]ixp.Source, ticks, depth, workers int) [][]tickCounters {
	tb.Helper()
	specs := make([]engine.VictimSpec, scenarioBenchVictims)
	srcs := make([][]engine.Source, scenarioBenchVictims)
	for v := 0; v < scenarioBenchVictims; v++ {
		specs[v] = engine.VictimSpec{Port: members[v].Name}
		srcs[v] = sources[v]
	}
	eng := engine.New(engine.Config{
		Driver:       engine.NewSourcesDriver(specs, srcs),
		Control:      x,
		DataPlane:    x,
		Ticks:        ticks,
		Dt:           1,
		Depth:        depth,
		Workers:      workers,
		MemberFilter: x.MemberFilter(),
	})
	series, err := eng.Run()
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]tickCounters, scenarioBenchVictims)
	for v := range series {
		out[v] = make([]tickCounters, 0, len(series[v].Samples))
		for _, s := range series[v].Samples {
			out[v] = append(out[v], tickCounters{
				offered:   s.OfferedBps / 8,
				nulled:    s.NulledBps / 8,
				delivered: s.DeliveredBps / 8,
				ruleDrop:  s.RuleDroppedBps / 8,
				shapeDrop: s.ShaperDroppedBps / 8,
				congDrop:  s.CongestionDroppedBps / 8,
			})
		}
	}
	return out
}

// TestEnginePipelineMatchesSerialTick pins the pipelined engine to the
// serial ixp.Tick loop on the bench workload: every per-tick
// delivered/dropped counter of every victim must be byte-identical
// (exact float equality, no tolerance) at every pipeline depth — 1
// (fully serial), 2 (the default) and 4 (deep, several batches queued
// for the fold goroutine) — so BenchmarkEnginePipeline and its baseline
// measure provably equal work at every depth it sweeps. Workers is
// pinned to 4 so the pool fans traffic and egress out even on one CPU.
func TestEnginePipelineMatchesSerialTick(t *testing.T) {
	const ticks = 25
	xs, membersS, sourcesS := scenarioBenchSetup(t)
	serial := serialTickLoop(t, xs, membersS, sourcesS, ticks)

	for _, depth := range []int{1, 2, 4} {
		xe, membersE, sourcesE := scenarioBenchSetup(t)
		pipeline := engineRun(t, xe, membersE, sourcesE, ticks, depth, 4)

		for v := range serial {
			if len(pipeline[v]) != len(serial[v]) {
				t.Fatalf("depth %d victim %d: %d vs %d ticks", depth, v, len(pipeline[v]), len(serial[v]))
			}
			for i := range serial[v] {
				if pipeline[v][i] != serial[v][i] {
					t.Fatalf("depth %d victim %d tick %d: engine %+v != serial %+v",
						depth, v, i, pipeline[v][i], serial[v][i])
				}
			}
		}
	}
}

// deliveredSum collapses a run's counters to total delivered bytes,
// the cross-depth identity the benchmark asserts.
func deliveredSum(out [][]tickCounters) float64 {
	var sum float64
	for _, ticks := range out {
		for _, c := range ticks {
			sum += c.delivered
		}
	}
	return sum
}

// BenchmarkEnginePipeline measures the stage-graph runtime end to end
// — ticks per second across all victims — once per pipeline depth.
// depth=1 is the no-overlap floor, depth=2 the default double buffer,
// depth=4 the deep pipeline with more batches queued for the fold
// goroutine; every sub-benchmark asserts the runs deliver identical
// bytes so any ratio read off this sweep compares provably equal work.
func BenchmarkEnginePipeline(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var refDelivered float64
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			x, members, sources := scenarioBenchSetup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := engineRun(b, x, members, sources, scenarioBenchTicks, depth, 0)
				if i == 0 {
					b.StopTimer()
					got := deliveredSum(out)
					if refDelivered == 0 {
						refDelivered = got
					} else if got != refDelivered {
						b.Fatalf("depth %d delivered %v bytes, want %v (identical across depths)",
							depth, got, refDelivered)
					}
					b.StartTimer()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*scenarioBenchTicks)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}

// BenchmarkEngineSerialTickBaseline runs the identical workload through
// the serial driver-pulled ixp.Tick loop — the pre-engine driver shape.
func BenchmarkEngineSerialTickBaseline(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	x, members, sources := scenarioBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serialTickLoop(b, x, members, sources, scenarioBenchTicks)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*scenarioBenchTicks)/b.Elapsed().Seconds(), "ticks/s")
}
