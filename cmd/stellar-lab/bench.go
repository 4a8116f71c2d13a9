package main

// The bench subcommand measures route-server update throughput, the
// fabric data-plane classifier and the end-to-end scenario pipeline,
// and emits the numbers as JSON, so CI can archive a machine-readable
// perf trajectory (BENCH_routeserver.json) next to the human-readable
// `go test -bench` output. The JSON schema is documented in README.md
// ("Benchmark JSON schema").
//
// The control-plane half drives the same concurrent multi-peer workload
// as bench_test.go: every peer announces batches of blackhole /32s from
// its own goroutine. Two configurations run back to back — "single-lock"
// (one RIB shard plus a global mutex over the whole pipeline, the
// pre-sharding serialization discipline) and "sharded" (the live
// parallel pipeline) — so every archived report carries its own baseline.
// The data-plane half (the "fabric" section) compares the retained
// linear-scan classification baseline against the compiled classifier on
// one port carrying -fabric-rules rules. The "scenario" section runs the
// multi-victim attack scenario end to end — the live engine (parallel
// fabric pass, delivered flows streamed into sharded collectors) versus
// the retained serial single-victim pipeline (per-tick DeliveredByFlow
// maps, map-based collector) — at GOMAXPROCS=4, the acceptance
// configuration.
//
// -cpuprofile / -memprofile write pprof profiles of the bench run;
// -check exits non-zero when any section falls below its stated
// regression bar (see README.md), which is how CI gates regressions.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/hw"
	"stellar/internal/irr"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

type benchConfig struct {
	Peers             int `json:"peers"`
	PrefixesPerPeer   int `json:"prefixes_per_peer"`
	PrefixesPerUpdate int `json:"prefixes_per_update"`
	Shards            int `json:"shards"`
}

type benchResult struct {
	Name           string  `json:"name"`
	Shards         int     `json:"shards"`
	Updates        int     `json:"updates"`
	Prefixes       int     `json:"prefixes"`
	Seconds        float64 `json:"seconds"`
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	PrefixesPerSec float64 `json:"prefixes_per_sec"`
}

type benchReport struct {
	Benchmark  string           `json:"benchmark"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	CPUs       int              `json:"cpus"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Config     benchConfig      `json:"config"`
	Results    []benchResult    `json:"results"`
	SpeedupX   float64          `json:"sharded_speedup_x"`
	Fabric     *fabricBench     `json:"fabric,omitempty"`
	Scenario   *scenarioBench   `json:"scenario,omitempty"`
	Mitctl     *mitctlBench     `json:"mitctl,omitempty"`
	Engine     *engineBench     `json:"engine,omitempty"`
	BGP        *bgpBench        `json:"bgp,omitempty"`
	Federation *federationBench `json:"federation,omitempty"`
}

// engineBench is the stage-graph-runtime section of the report: the
// pipelined engine (internal/engine: double-buffered ticks, shared
// worker pool, streamed monitoring) against the serial driver-pulled
// ixp.Tick loop on the identical multi-victim workload, both at
// GOMAXPROCS=4. The two paths must produce byte-identical per-tick
// delivered/dropped counters (enforced here, not just in tests) so the
// speedup is measured on provably equal work; the regression bar
// demands pipeline >= barEngineSpeedupX x serial.
type engineBench struct {
	Victims           int                  `json:"victims"`
	PeersPerVictim    int                  `json:"peers_per_victim"`
	Ticks             int                  `json:"ticks"`
	GOMAXPROCS        int                  `json:"gomaxprocs"`
	Depth             int                  `json:"depth"`
	SerialTicksPerSec float64              `json:"serial_ticks_per_sec"`
	EngineTicksPerSec float64              `json:"engine_ticks_per_sec"`
	SpeedupX          float64              `json:"speedup_x"`
	DeliveredBytes    float64              `json:"delivered_bytes"`
	Profile           *engine.StageProfile `json:"stage_profile,omitempty"`
}

// mitctlBench is the mitigation-control-plane half of the report: the
// full declarative lifecycle (Request → validate → queue → install,
// measured as controller installs/s and its inverse,
// lifecycle_ns_per_install — the amortized wall-clock cost per
// installed change, not a per-request latency) against the floor of
// raw manager Apply calls on an identical rule population. overhead_x
// is direct/controller; the regression bar demands the lifecycle stays
// within barMitctlMinRatio of the raw floor.
type mitctlBench struct {
	Members                  int     `json:"members"`
	Requests                 int     `json:"requests"`
	DirectInstallsPerSec     float64 `json:"direct_installs_per_sec"`
	ControllerInstallsPerSec float64 `json:"controller_installs_per_sec"`
	LifecycleNsPerInstall    float64 `json:"lifecycle_ns_per_install"`
	OverheadX                float64 `json:"overhead_x"`
}

// scenarioBench is the end-to-end half of the report: the multi-victim
// scenario pipeline (live engine) versus the retained serial
// single-victim pipeline, both at GOMAXPROCS=4. A "tick" serves every
// victim; records are delivered-flow observations entering the monitor.
type scenarioBench struct {
	Victims             int     `json:"victims"`
	PeersPerVictim      int     `json:"peers_per_victim"`
	Ticks               int     `json:"ticks"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	FlowsPerTick        int     `json:"flows_per_tick"`
	BaselineTicksPerSec float64 `json:"baseline_ticks_per_sec"`
	PipelineTicksPerSec float64 `json:"pipeline_ticks_per_sec"`
	SpeedupX            float64 `json:"speedup_x"`
	ObserveNsPerRecord  float64 `json:"observe_ns_per_record"`
}

// fabricBench is the data-plane half of the report: classification cost
// on one port under the retained linear-scan baseline versus the
// compiled classifier (hash-on-demand and pre-hashed), plus a full
// egress-tick rate with the compiled path.
type fabricBench struct {
	Rules               int     `json:"rules"`
	Flows               int     `json:"flows"`
	LinearNsPerOp       float64 `json:"linear_ns_per_classify"`
	CompiledNsPerOp     float64 `json:"compiled_ns_per_classify"`
	PrehashedNsPerOp    float64 `json:"prehashed_ns_per_classify"`
	CompiledSpeedupX    float64 `json:"compiled_speedup_x"`
	EgressTicksPerSec   float64 `json:"egress_ticks_per_sec"`
	EgressFlowsPerSec   float64 `json:"egress_flows_per_sec"`
	ClassifierBuildUsec float64 `json:"classifier_build_usec"`
}

func runBenchCommand(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	peers := fs.Int("peers", 64, "concurrent peer sessions")
	prefixes := fs.Int("prefixes", 2000, "prefixes announced per peer")
	updateSize := fs.Int("update-size", 10, "prefixes per UPDATE message")
	shards := fs.Int("shards", 0, "RIB shards for the sharded run (0 = default)")
	fabricRules := fs.Int("fabric-rules", 1024, "installed rules for the fabric classifier bench (0 = skip)")
	fabricFlows := fs.Int("fabric-flows", 512, "distinct flows offered in the fabric classifier bench")
	scenarioVictims := fs.Int("scenario-victims", 4, "victim ports in the scenario pipeline bench (0 = skip)")
	scenarioPeers := fs.Int("scenario-peers", 48, "attack peers per victim in the scenario pipeline bench")
	scenarioTicks := fs.Int("scenario-ticks", 120, "simulated ticks per scenario pipeline run")
	mitctlRequests := fs.Int("mitctl-requests", 4096, "mitigation requests in the mitctl lifecycle bench (0 = skip)")
	mitctlMembers := fs.Int("mitctl-members", 64, "member ports in the mitctl lifecycle bench")
	bgpMessages := fs.Int("bgp-messages", 50000, "BGP messages in the wire-format codec/replay bench (0 = skip)")
	fedExchanges := fs.Int("federation-exchanges", 10, "exchanges in the multi-IXP federation bench (0 = skip)")
	fedVictims := fs.Int("federation-victims", 4, "shared victims in the federation bench")
	fedLocalPeers := fs.Int("federation-local-peers", 196, "local peers per exchange in the federation bench")
	fedTicks := fs.Int("federation-ticks", 100, "simulated ticks per federation bench run")
	fedDelay := fs.Int("federation-delay", 2, "gossip propagation delay in ticks for the federation bench")
	diff := fs.Bool("diff", false, "compare two archived reports instead of running: bench -diff old.json new.json")
	trend := fs.String("trend", "", "print a per-metric trajectory table from a directory of archived bench reports instead of running")
	stageProfile := fs.Bool("stage-profile", false, "collect engine stage-profile counters (per-stage ns, spine/fold wait) into the report")
	check := fs.Bool("check", false, "exit non-zero when any section falls below its stated regression bar")
	sections := fs.String("sections", "", "also write one <prefix><section>.json file per measured section (e.g. -sections BENCH_)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the bench run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the bench run to this file")
	out := fs.String("out", "", "write the JSON report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		rest := fs.Args()
		if len(rest) != 2 {
			return fmt.Errorf("bench -diff: want two report files, got %d", len(rest))
		}
		return benchDiff(w, rest[0], rest[1])
	}
	if *trend != "" {
		return benchTrend(w, *trend)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *peers < 1 || *prefixes < 1 || *updateSize < 1 {
		return fmt.Errorf("bench: -peers, -prefixes and -update-size must be >= 1")
	}
	cfg := benchConfig{
		Peers:             *peers,
		PrefixesPerPeer:   *prefixes,
		PrefixesPerUpdate: *updateSize,
		Shards:            *shards,
	}
	if cfg.Shards == 0 {
		cfg.Shards = rib.DefaultShards
	}

	report := benchReport{
		Benchmark:  "routeserver-throughput",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
	}
	single := benchThroughput(cfg, 1, true)
	single.Name = "single-lock"
	sharded := benchThroughput(cfg, cfg.Shards, false)
	sharded.Name = "sharded"
	report.Results = []benchResult{single, sharded}
	if single.UpdatesPerSec > 0 {
		report.SpeedupX = sharded.UpdatesPerSec / single.UpdatesPerSec
	}
	if *fabricRules > 0 {
		fb, err := benchFabric(*fabricRules, *fabricFlows)
		if err != nil {
			return err
		}
		report.Fabric = fb
	}
	if *scenarioVictims > 0 {
		sb, err := benchScenario(*scenarioVictims, *scenarioPeers, *scenarioTicks)
		if err != nil {
			return err
		}
		report.Scenario = sb
	}
	if *mitctlRequests > 0 {
		mb, err := benchMitctl(*mitctlMembers, *mitctlRequests)
		if err != nil {
			return err
		}
		report.Mitctl = mb
	}
	if *scenarioVictims > 0 {
		eb, err := benchEngine(*scenarioVictims, *scenarioPeers, *scenarioTicks, *stageProfile)
		if err != nil {
			return err
		}
		report.Engine = eb
	}
	if *bgpMessages > 0 {
		gb, err := benchBGP(*bgpMessages)
		if err != nil {
			return err
		}
		report.BGP = gb
	}
	if *fedExchanges > 0 {
		fb, err := benchFederation(*fedExchanges, *fedVictims, *fedLocalPeers, *fedTicks, *fedDelay)
		if err != nil {
			return err
		}
		report.Federation = fb
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if *sections != "" {
		if err := writeSections(*sections, &report); err != nil {
			return err
		}
	}
	// With -out the console is free, so render the collected stage
	// profile as a table there; without -out the JSON on stdout already
	// carries it under engine.stage_profile.
	if *stageProfile && *out != "" && report.Engine != nil && report.Engine.Profile != nil {
		writeStageProfile(w, report.Engine.Profile)
	}
	if *check {
		return checkBars(&report)
	}
	return nil
}

// writeStageProfile renders the engine's stage-profile counters: where
// pipeline time went per stage, and which side (spine vs fold) spent
// time blocked on the other.
func writeStageProfile(w io.Writer, p *engine.StageProfile) {
	fmt.Fprintf(w, "engine stage profile (%d ticks):\n", p.Ticks)
	for _, st := range p.Stages {
		var nsPerRun float64
		if st.Runs > 0 {
			nsPerRun = float64(st.Ns) / float64(st.Runs)
		}
		fmt.Fprintf(w, "  %-8s %10.2f ms total  %8d runs  %12.0f ns/run\n",
			st.Name, float64(st.Ns)/1e6, st.Runs, nsPerRun)
	}
	fmt.Fprintf(w, "  spine-wait %.2f ms   fold-wait %.2f ms\n",
		float64(p.SpineWaitNs)/1e6, float64(p.FoldWaitNs)/1e6)
}

// writeSections archives every measured section as its own
// <prefix><section>.json file — one artifact per subsystem, so the
// per-PR bench trajectory (routeserver, fabric, scenario, mitctl,
// engine) stays comparable even as the combined report grows. Each file
// repeats the host header and carries only its section.
func writeSections(prefix string, r *benchReport) error {
	write := func(name string, section benchReport) error {
		section.Benchmark = r.Benchmark + ":" + name
		section.GOOS, section.GOARCH = r.GOOS, r.GOARCH
		section.CPUs, section.GOMAXPROCS = r.CPUs, r.GOMAXPROCS
		f, err := os.Create(prefix + name + ".json")
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(section); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("routeserver", benchReport{
		Config: r.Config, Results: r.Results, SpeedupX: r.SpeedupX,
	}); err != nil {
		return err
	}
	if r.Fabric != nil {
		if err := write("fabric", benchReport{Fabric: r.Fabric}); err != nil {
			return err
		}
	}
	if r.Scenario != nil {
		if err := write("scenario", benchReport{Scenario: r.Scenario}); err != nil {
			return err
		}
	}
	if r.Mitctl != nil {
		if err := write("mitctl", benchReport{Mitctl: r.Mitctl}); err != nil {
			return err
		}
	}
	if r.Engine != nil {
		if err := write("engine", benchReport{Engine: r.Engine}); err != nil {
			return err
		}
	}
	if r.BGP != nil {
		if err := write("bgp", benchReport{BGP: r.BGP}); err != nil {
			return err
		}
	}
	if r.Federation != nil {
		if err := write("federation", benchReport{Federation: r.Federation}); err != nil {
			return err
		}
	}
	return nil
}

// Regression bars for `bench -check`, documented in README.md. The
// bars are deliberately below the typical measurements (sharded ~1.5x+,
// compiled classifier ~75x, scenario ~5x+ at GOMAXPROCS=4) so CI fails
// on real regressions, not run-to-run noise.
const (
	barShardedSpeedupX  = 0.8
	barFabricSpeedupX   = 5.0
	barScenarioSpeedupX = 3.0
	// barMitctlMinRatio: the declarative lifecycle (validate, queue,
	// versioned store, events) must sustain at least this fraction of
	// the raw manager-Apply install rate (typically ~0.4-0.8x).
	barMitctlMinRatio = 0.10
	// barEngineSpeedupX: the pipelined stage-graph runtime must beat
	// the serial driver-pulled ixp.Tick loop by this factor at
	// GOMAXPROCS=4 (typically ~4x even on one core, from buffer reuse
	// and streamed monitoring; pipelining adds more on real cores).
	barEngineSpeedupX = 1.5
	// BGP wire-format bars: the codec sustains ~1M parse+marshal
	// roundtrips/s and MRT replay into the sharded RIB ~15k updates/s
	// on a dev box; the bars sit far below so only a structural
	// regression (quadratic attr copying, per-message allocation storms)
	// trips them on shared CI runners.
	barBGPRoundtripMsgsPerSec = 150_000
	barBGPReplayUpdatesPerSec = 2_000
	// barFederationFlowsPerSec: the 10-exchange federation bench
	// generates and classifies ~1M member flows per run; the aggregate
	// rate across all exchange pipelines on the shared pool typically
	// sits in the millions/s, so the bar only trips on a structural
	// slowdown (barrier convoying, pool starvation). The propagation
	// check next to it is exact: every gossiped signal must install at
	// every exchange within the configured delay.
	barFederationFlowsPerSec = 200_000
)

// checkBars fails the run when a measured section sits below its bar.
func checkBars(r *benchReport) error {
	var failures []string
	if r.SpeedupX > 0 && r.SpeedupX < barShardedSpeedupX {
		failures = append(failures, fmt.Sprintf(
			"routeserver: sharded_speedup_x %.2f < %.2f", r.SpeedupX, barShardedSpeedupX))
	}
	if r.Fabric != nil && r.Fabric.CompiledSpeedupX < barFabricSpeedupX {
		failures = append(failures, fmt.Sprintf(
			"fabric: compiled_speedup_x %.2f < %.2f", r.Fabric.CompiledSpeedupX, barFabricSpeedupX))
	}
	if r.Scenario != nil && r.Scenario.SpeedupX < barScenarioSpeedupX {
		failures = append(failures, fmt.Sprintf(
			"scenario: speedup_x %.2f < %.2f", r.Scenario.SpeedupX, barScenarioSpeedupX))
	}
	if r.Mitctl != nil && r.Mitctl.ControllerInstallsPerSec < barMitctlMinRatio*r.Mitctl.DirectInstallsPerSec {
		failures = append(failures, fmt.Sprintf(
			"mitctl: controller_installs_per_sec %.0f < %.2f x direct (%.0f)",
			r.Mitctl.ControllerInstallsPerSec, barMitctlMinRatio, r.Mitctl.DirectInstallsPerSec))
	}
	if r.Engine != nil && r.Engine.SpeedupX < barEngineSpeedupX {
		failures = append(failures, fmt.Sprintf(
			"engine: speedup_x %.2f < %.2f", r.Engine.SpeedupX, barEngineSpeedupX))
	}
	if r.BGP != nil && r.BGP.RoundtripMsgsPerSec < barBGPRoundtripMsgsPerSec {
		failures = append(failures, fmt.Sprintf(
			"bgp: roundtrip_msgs_per_sec %.0f < %d", r.BGP.RoundtripMsgsPerSec, barBGPRoundtripMsgsPerSec))
	}
	if r.BGP != nil && r.BGP.ReplayUpdatesPerSec < barBGPReplayUpdatesPerSec {
		failures = append(failures, fmt.Sprintf(
			"bgp: replay_updates_per_sec %.0f < %d", r.BGP.ReplayUpdatesPerSec, barBGPReplayUpdatesPerSec))
	}
	if r.Federation != nil {
		if r.Federation.FlowsPerSec < barFederationFlowsPerSec {
			failures = append(failures, fmt.Sprintf(
				"federation: flows_per_sec %.0f < %d", r.Federation.FlowsPerSec, barFederationFlowsPerSec))
		}
		if r.Federation.SignalsComplete < r.Federation.Signals {
			failures = append(failures, fmt.Sprintf(
				"federation: %d of %d signals incomplete",
				r.Federation.Signals-r.Federation.SignalsComplete, r.Federation.Signals))
		}
		if r.Federation.Signals > 0 && r.Federation.MaxPropagationTicks > r.Federation.GossipDelayTicks {
			failures = append(failures, fmt.Sprintf(
				"federation: max_propagation_ticks %d > configured delay %d",
				r.Federation.MaxPropagationTicks, r.Federation.GossipDelayTicks))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: regression bars violated: %v", failures)
	}
	return nil
}

// benchScenario measures the end-to-end scenario pipeline: victims
// member ports each under an NTP amplification attack from a shared
// peer pool plus benign web traffic, run once through the retained
// serial single-victim pipeline (per-tick DeliveredByFlow maps, one
// map-collector record per delivered flow, map-walk peer counts) and
// once through the live multi-victim engine (parallel fabric pass,
// records streamed into sharded collectors). Both run at GOMAXPROCS=4
// — the acceptance configuration — and must deliver identical bytes.
func benchScenario(victims, peersPer, ticks int) (*scenarioBench, error) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	build := func() (*ixp.IXP, []*member.Member, [][]ixp.Source, error) {
		members := member.MakePopulation(member.PopulationConfig{
			N: victims + peersPer, HonoringFraction: 0.3,
			PortCapacityBps: 1e9, Seed: 9,
		})
		x, err := ixp.Build(ixp.Config{
			ASN:              6695,
			BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
			Members:          members,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		peers := ixp.PeersOf(members[victims:])
		webPeers := len(peers) / 4
		if webPeers < 1 {
			webPeers = 1
		}
		sources := make([][]ixp.Source, victims)
		for v := 0; v < victims; v++ {
			rng := stats.NewRand(uint64(31 + v))
			target := members[v].Prefixes[0].Addr().Next()
			attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 2e9, 0, 1<<30, rng)
			attack.RampTicks = 0
			web := traffic.NewWebService(target, peers[:webPeers], 2e8, rng)
			sources[v] = []ixp.Source{attack, web}
		}
		return x, members, sources, nil
	}

	res := &scenarioBench{
		Victims: victims, PeersPerVictim: peersPer, Ticks: ticks,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Baseline: the retained pre-sharding pipeline, one victim at a time.
	// Returns (seconds, delivered bytes).
	const peerMinBps = 1e3
	runBaseline := func(x *ixp.IXP, members []*member.Member, sources [][]ixp.Source, nTicks int) (float64, float64, error) {
		var delivered float64
		start := time.Now()
		for v := 0; v < victims; v++ {
			mon := flowmon.NewMapCollector()
			for tick := 0; tick < nTicks; tick++ {
				var offers []fabric.Offer
				for _, src := range sources[v] {
					offers = append(offers, src.Offers(tick, 1)...)
				}
				if v == 0 && tick == 0 && res.FlowsPerTick == 0 {
					res.FlowsPerTick = len(offers) * victims
				}
				reports, err := x.Tick(fabric.TickOffers{members[v].Name: offers}, 1)
				if err != nil {
					return 0, 0, err
				}
				rep := reports[members[v].Name]
				for flow, bytes := range rep.Result.DeliveredByFlow {
					mon.Observe(flowmon.Record{Bin: tick, Key: flow, Bytes: bytes})
				}
				_ = x.ActivePeers(rep.Result, peerMinBps/8)
				delivered += rep.Result.DeliveredBytes
			}
		}
		return time.Since(start).Seconds(), delivered, nil
	}

	// Live engine: one multi-victim run. Returns (seconds, delivered).
	runPipeline := func(x *ixp.IXP, members []*member.Member, sources [][]ixp.Source, nTicks int) (float64, float64, error) {
		vs := make([]ixp.Victim, victims)
		for v := range vs {
			vs[v] = ixp.Victim{Port: members[v].Name, Sources: sources[v]}
		}
		sc := &ixp.Scenario{IXP: x, Ticks: nTicks, Dt: 1, Victims: vs}
		start := time.Now()
		series, err := sc.RunAll()
		if err != nil {
			return 0, 0, err
		}
		secs := time.Since(start).Seconds()
		var delivered float64
		for _, s := range series {
			for _, smp := range s.Samples {
				delivered += smp.DeliveredBps / 8
			}
		}
		return secs, delivered, nil
	}

	// Each engine gets a warmup pass (runtime, pools and allocator reach
	// steady state) and is then timed over the full tick count; short
	// timed runs are otherwise dominated by cold-start effects.
	warmTicks := ticks / 4
	if warmTicks < 20 {
		warmTicks = 20
	}
	xb, membersB, sourcesB, err := build()
	if err != nil {
		return nil, err
	}
	if _, _, err := runBaseline(xb, membersB, sourcesB, warmTicks); err != nil {
		return nil, err
	}
	baseSecs, baseDelivered, err := runBaseline(xb, membersB, sourcesB, ticks)
	if err != nil {
		return nil, err
	}
	res.BaselineTicksPerSec = float64(ticks) / baseSecs

	xp, membersP, sourcesP, err := build()
	if err != nil {
		return nil, err
	}
	if _, _, err := runPipeline(xp, membersP, sourcesP, warmTicks); err != nil {
		return nil, err
	}
	pipeSecs, pipeDelivered, err := runPipeline(xp, membersP, sourcesP, ticks)
	if err != nil {
		return nil, err
	}
	if diff := pipeDelivered - baseDelivered; diff > 1e-6*baseDelivered || diff < -1e-6*baseDelivered {
		return nil, fmt.Errorf("bench: scenario engines diverged: pipeline delivered %v bytes, baseline %v",
			pipeDelivered, baseDelivered)
	}
	res.PipelineTicksPerSec = float64(ticks) / pipeSecs
	if res.BaselineTicksPerSec > 0 {
		res.SpeedupX = res.PipelineTicksPerSec / res.BaselineTicksPerSec
	}

	// Steady-state observe cost per record on one shard.
	mon := flowmon.NewCollectorShards(1)
	sh := mon.Shard(0)
	key := netpkt.FlowKey{
		SrcMAC: netpkt.MAC{0x02, 0x10, 0, 0, 0, 1},
		Src:    netip.AddrFrom4([4]byte{198, 51, 100, 1}),
		Dst:    netip.AddrFrom4([4]byte{100, 10, 10, 10}),
		Proto:  netpkt.ProtoUDP, SrcPort: 123, DstPort: 443,
	}
	res.ObserveNsPerRecord = timePerOp(func(i int) { sh.ObserveFlow(i/1000, key, 100) })
	return res, nil
}

// benchEngine measures the stage-graph runtime end to end: the same
// multi-victim attack workload as benchScenario, driven once through
// the serial ixp.Tick loop (fresh offer slices, one synchronous tick
// call, materialized DeliveredByFlow maps, map-collector records,
// map-walk peer counts — the pre-engine driver shape) and once through
// engine.New (double-buffered ticks on a shared worker pool, monitoring
// folded while the next tick egresses). The per-run delivered bytes
// must match exactly — the engine's determinism contract — before the
// speedup counts. With profile set, the timed engine run also collects
// the stage-profile counters.
func benchEngine(victims, peersPer, ticks int, profile bool) (*engineBench, error) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	build := func() (*ixp.IXP, []*member.Member, [][]ixp.Source, error) {
		members := member.MakePopulation(member.PopulationConfig{
			N: victims + peersPer, HonoringFraction: 0.3,
			PortCapacityBps: 1e9, Seed: 9,
		})
		x, err := ixp.Build(ixp.Config{
			ASN:              6695,
			BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
			Members:          members,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		peers := ixp.PeersOf(members[victims:])
		webPeers := len(peers) / 4
		if webPeers < 1 {
			webPeers = 1
		}
		sources := make([][]ixp.Source, victims)
		for v := 0; v < victims; v++ {
			rng := stats.NewRand(uint64(31 + v))
			target := members[v].Prefixes[0].Addr().Next()
			attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 2e9, 0, 1<<30, rng)
			attack.RampTicks = 0
			web := traffic.NewWebService(target, peers[:webPeers], 2e8, rng)
			sources[v] = []ixp.Source{attack, web}
		}
		return x, members, sources, nil
	}

	res := &engineBench{
		Victims: victims, PeersPerVictim: peersPer, Ticks: ticks,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Depth: 2,
	}

	// Serial ixp.Tick loop; returns (seconds, delivered bytes).
	runSerial := func(x *ixp.IXP, members []*member.Member, sources [][]ixp.Source, nTicks int) (float64, float64, error) {
		const peerMinBytes = 1e3 / 8
		mons := make([]*flowmon.MapCollector, victims)
		for v := range mons {
			mons[v] = flowmon.NewMapCollector()
		}
		var delivered float64
		start := time.Now()
		for tick := 0; tick < nTicks; tick++ {
			offers := make(fabric.TickOffers, victims)
			for v := 0; v < victims; v++ {
				var os []fabric.Offer
				for _, src := range sources[v] {
					os = append(os, src.Offers(tick, 1)...)
				}
				offers[members[v].Name] = os
			}
			reports, err := x.Tick(offers, 1)
			if err != nil {
				return 0, 0, err
			}
			for v := 0; v < victims; v++ {
				rep := reports[members[v].Name]
				for flow, bytes := range rep.Result.DeliveredByFlow {
					mons[v].Observe(flowmon.Record{Bin: tick, Key: flow, Bytes: bytes})
				}
				_ = x.ActivePeers(rep.Result, peerMinBytes)
				delivered += rep.Result.DeliveredBytes
			}
		}
		return time.Since(start).Seconds(), delivered, nil
	}

	// Pipelined engine; returns (seconds, delivered bytes, stage
	// profile).
	runEngine := func(x *ixp.IXP, members []*member.Member, sources [][]ixp.Source, nTicks int, prof bool) (float64, float64, *engine.StageProfile, error) {
		specs := make([]engine.VictimSpec, victims)
		srcs := make([][]engine.Source, victims)
		for v := 0; v < victims; v++ {
			specs[v] = engine.VictimSpec{Port: members[v].Name}
			srcs[v] = sources[v]
		}
		eng := engine.New(engine.Config{
			Driver:       engine.NewSourcesDriver(specs, srcs),
			Control:      x,
			DataPlane:    x,
			Ticks:        nTicks,
			Dt:           1,
			Depth:        res.Depth,
			Profile:      prof,
			MemberFilter: x.MemberFilter(),
		})
		start := time.Now()
		series, err := eng.Run()
		if err != nil {
			return 0, 0, nil, err
		}
		secs := time.Since(start).Seconds()
		var delivered float64
		for _, s := range series {
			for _, smp := range s.Samples {
				delivered += smp.DeliveredBps / 8
			}
		}
		var sp *engine.StageProfile
		if len(series) > 0 {
			sp = series[0].Profile
		}
		return secs, delivered, sp, nil
	}

	warmTicks := ticks / 4
	if warmTicks < 20 {
		warmTicks = 20
	}
	xs, membersS, sourcesS, err := build()
	if err != nil {
		return nil, err
	}
	if _, _, err := runSerial(xs, membersS, sourcesS, warmTicks); err != nil {
		return nil, err
	}
	serialSecs, serialDelivered, err := runSerial(xs, membersS, sourcesS, ticks)
	if err != nil {
		return nil, err
	}
	res.SerialTicksPerSec = float64(ticks) / serialSecs

	xe, membersE, sourcesE, err := build()
	if err != nil {
		return nil, err
	}
	if _, _, _, err := runEngine(xe, membersE, sourcesE, warmTicks, false); err != nil {
		return nil, err
	}
	engineSecs, engineDelivered, prof, err := runEngine(xe, membersE, sourcesE, ticks, profile)
	if err != nil {
		return nil, err
	}
	// Sources are stateful (warmup advanced both pairs identically), so
	// the timed runs replay the same ticks: exact equality, no
	// tolerance.
	if engineDelivered != serialDelivered {
		return nil, fmt.Errorf("bench: engine diverged from serial ixp.Tick: delivered %v vs %v bytes",
			engineDelivered, serialDelivered)
	}
	res.DeliveredBytes = engineDelivered
	res.EngineTicksPerSec = float64(ticks) / engineSecs
	if res.SerialTicksPerSec > 0 {
		res.SpeedupX = res.EngineTicksPerSec / res.SerialTicksPerSec
	}
	res.Profile = prof
	return res, nil
}

// benchFabric measures the port classifier: a blackholing-shaped rule
// set (mostly per-source-port drops plus prefix and MAC rules), a flow
// population of which a quarter matches, classified by (a) the retained
// linear-scan baseline over Port.Rules(), (b) Port.Classify hashing on
// demand, and (c) Port.ClassifyHashed with pre-hashed flows, then a
// full flow-level egress tick on the compiled path. The rule/flow
// shape intentionally mirrors benchRules/benchFlows in bench_test.go so
// the JSON numbers track the go-test benchmarks.
func benchFabric(nRules, nFlows int) (*fabricBench, error) {
	if nFlows < 1 {
		nFlows = 1
	}
	port := fabric.NewPort("victim", netpkt.MAC{0x02, 0, 0, 0, 0, 1}, 1e9)
	buildStart := time.Now()
	for i := 0; i < nRules; i++ {
		m := fabric.MatchAll()
		switch i % 8 {
		case 6:
			m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 20, byte(i >> 8), byte(i)}), 32)
		case 7:
			mac := netpkt.MAC{0x02, 0x77, 0, 0, byte(i >> 8), byte(i)}
			m.SrcMAC = &mac
		default:
			m.Proto = netpkt.ProtoUDP
			m.SrcPort = int32(1000 + i)
		}
		if err := port.InstallRule(&fabric.Rule{ID: fmt.Sprintf("r%04d", i), Match: m, Action: fabric.ActionDrop}); err != nil {
			return nil, fmt.Errorf("bench: install fabric rule: %w", err)
		}
	}
	buildUsec := time.Since(buildStart).Seconds() * 1e6 / float64(nRules)

	flows := make([]netpkt.FlowKey, nFlows)
	hashes := make([]uint64, nFlows)
	offers := make([]fabric.Offer, nFlows)
	for i := range flows {
		srcPort := uint16(40000 + i)
		if i%4 == 0 {
			srcPort = uint16(1000 + i)
		}
		flows[i] = netpkt.FlowKey{
			SrcMAC:  netpkt.MAC{0x02, 0x10, 0, 0, 0, byte(i)},
			Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{100, 10, 10, 10}),
			Proto:   netpkt.ProtoUDP,
			SrcPort: srcPort,
			DstPort: 443,
		}
		hashes[i] = flows[i].Hash()
		offers[i] = fabric.Offer{Flow: flows[i], FlowHash: hashes[i], Bytes: 1e4, Packets: 10}
	}

	rules := port.Rules()
	res := &fabricBench{Rules: nRules, Flows: nFlows, ClassifierBuildUsec: buildUsec}
	res.LinearNsPerOp = timePerOp(func(i int) {
		f := flows[i%nFlows]
		for _, r := range rules {
			if r.Match.Matches(f) {
				break
			}
		}
	})
	res.CompiledNsPerOp = timePerOp(func(i int) { port.Classify(flows[i%nFlows]) })
	res.PrehashedNsPerOp = timePerOp(func(i int) { j := i % nFlows; port.ClassifyHashed(flows[j], hashes[j]) })
	if res.CompiledNsPerOp > 0 {
		res.CompiledSpeedupX = res.LinearNsPerOp / res.CompiledNsPerOp
	}
	ticksPerSec := 1e9 / timePerOp(func(int) { port.Egress(offers, 1) })
	res.EgressTicksPerSec = ticksPerSec
	res.EgressFlowsPerSec = ticksPerSec * float64(nFlows)
	return res, nil
}

// benchMitctl measures the mitigation lifecycle: `requests` distinct
// drop mitigations spread over `members` ports, first installed through
// raw manager Apply calls (the floor: admission control + classifier
// compile only), then through the full controller path — content-derived
// IDs, IRR validation, change-queue pacing, versioned store, event
// stream. Both runs install the same rule population; the controller
// run must keep at least barMitctlMinRatio of the raw rate.
func benchMitctl(members, requests int) (*mitctlBench, error) {
	if members < 1 {
		members = 1
	}
	memberName := func(i int) string { return fmt.Sprintf("AS%d", 64512+i) }
	memberMAC := func(i int) netpkt.MAC { return netpkt.MAC{0x02, 0x44, 0, 0, byte(i >> 8), byte(i)} }
	memberNet := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	lim := hw.DefaultEdgeRouterLimits(members, hw.RTBHUnitN)
	lim.L34CriteriaTotal = 4*requests + 64
	lim.MACFiltersTotal = requests + 64
	lim.QoSPoliciesPerPort = requests/members + 64
	build := func() (*fabric.Fabric, *core.QoSManager) {
		fab := fabric.New()
		portIndex := make(map[string]int, members)
		for i := 0; i < members; i++ {
			if err := fab.AddPort(fabric.NewPort(memberName(i), memberMAC(i), 1e10)); err != nil {
				panic(err)
			}
			portIndex[memberName(i)] = i
		}
		return fab, core.NewQoSManager(fab, hw.NewEdgeRouter(lim), portIndex)
	}
	match := func(i int) fabric.Match {
		m := fabric.MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = int32(1000 + i/members)
		m.DstIP = netip.PrefixFrom(memberNet(i%members).Addr().Next(), 32)
		return m
	}

	res := &mitctlBench{Members: members, Requests: requests}

	// Floor: straight Apply calls, no lifecycle.
	_, directMgr := build()
	start := time.Now()
	for i := 0; i < requests; i++ {
		if err := directMgr.Apply(core.ConfigChange{
			Op: core.OpInstall, Member: memberName(i % members),
			RuleID: fmt.Sprintf("direct:%d", i),
			Match:  match(i), Action: fabric.ActionDrop,
		}); err != nil {
			return nil, fmt.Errorf("bench: direct install: %w", err)
		}
	}
	res.DirectInstallsPerSec = float64(requests) / time.Since(start).Seconds()

	// Full lifecycle: Request + Process batches (unthrottled queue, so
	// the measurement is controller overhead, not pacing).
	reg := irr.NewRegistry()
	asns := make(map[string]uint32, members)
	for i := 0; i < members; i++ {
		reg.Register(uint32(64512+i), memberNet(i))
		asns[memberName(i)] = uint32(64512 + i)
	}
	_, ctlMgr := build()
	ctl := mitctl.New(mitctl.Config{
		Manager:    ctlMgr,
		QueueRate:  1e12,
		QueueBurst: requests + 1,
		Validator: &mitctl.IRRValidator{Registry: reg, ASNOf: func(name string) (uint32, bool) {
			asn, ok := asns[name]
			return asn, ok
		}},
	})
	now := 0.0
	start = time.Now()
	for i := 0; i < requests; i++ {
		m := i % members
		spec := mitctl.Spec{
			Requester: memberName(m),
			Target:    netip.PrefixFrom(memberNet(m).Addr().Next(), 32),
			Match:     match(i),
			Action:    fabric.ActionDrop,
		}
		if _, err := ctl.Request(spec, now); err != nil {
			return nil, fmt.Errorf("bench: mitctl request: %w", err)
		}
		if i%64 == 63 {
			now++
			ctl.Process(now)
		}
	}
	now++
	ctl.Process(now)
	elapsed := time.Since(start).Seconds()
	if got := ctl.AppliedChanges(); got != requests {
		return nil, fmt.Errorf("bench: mitctl applied %d of %d changes (errors: %d)",
			got, requests, len(ctl.Errors()))
	}
	res.ControllerInstallsPerSec = float64(requests) / elapsed
	res.LifecycleNsPerInstall = elapsed * 1e9 / float64(requests)
	if res.ControllerInstallsPerSec > 0 {
		res.OverheadX = res.DirectInstallsPerSec / res.ControllerInstallsPerSec
	}
	return res, nil
}

// timePerOp measures fn's cost in ns/op, growing the iteration count
// until the run lasts long enough to trust.
func timePerOp(fn func(i int)) float64 {
	for n := 1024; ; n *= 4 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		elapsed := time.Since(start)
		if elapsed >= 20*time.Millisecond || n >= 1<<22 {
			return float64(elapsed.Nanoseconds()) / float64(n)
		}
	}
}

// benchThroughput runs the multi-peer announce workload once and times
// it. serialize wraps every HandleUpdateBatch in one global mutex,
// reproducing the seed's one-big-lock pipeline on today's code.
func benchThroughput(cfg benchConfig, shards int, serialize bool) benchResult {
	rs := routeserver.New(routeserver.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
		RIBShards:        shards,
	})
	names := make([]string, cfg.Peers)
	for i := range names {
		names[i] = fmt.Sprintf("AS%d", 64512+i)
		if err := rs.AddPeer(routeserver.PeerConfig{
			Name:  names[i],
			ASN:   uint32(64512 + i),
			BGPID: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		}); err != nil {
			panic(err)
		}
	}
	updatesPerPeer := cfg.PrefixesPerPeer / cfg.PrefixesPerUpdate
	if updatesPerPeer == 0 {
		updatesPerPeer = 1
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < cfg.Peers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			asn := uint32(64512 + id)
			var c uint32
			for n := 0; n < updatesPerPeer; n++ {
				u := &bgp.Update{Attrs: bgp.PathAttrs{
					Origin:      bgp.OriginIGP,
					ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{asn}}},
					NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, byte(id)}),
					Communities: []bgp.Community{bgp.CommunityBlackhole},
				}}
				for k := 0; k < cfg.PrefixesPerUpdate; k++ {
					addr := netip.AddrFrom4([4]byte{100, byte(id), byte(c >> 8), byte(c)})
					c++
					u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: netip.PrefixFrom(addr, 32)})
				}
				if serialize {
					mu.Lock()
				}
				_, _, err := rs.HandleUpdateBatch(names[id], u)
				if serialize {
					mu.Unlock()
				}
				if err != nil {
					panic(err)
				}
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	updates := cfg.Peers * updatesPerPeer
	prefixes := updates * cfg.PrefixesPerUpdate
	return benchResult{
		Shards:         shards,
		Updates:        updates,
		Prefixes:       prefixes,
		Seconds:        elapsed,
		UpdatesPerSec:  float64(updates) / elapsed,
		PrefixesPerSec: float64(prefixes) / elapsed,
	}
}
