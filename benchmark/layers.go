package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/hw"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
	"stellar/internal/traffic"
)

// layerInputs is what a workload hands the isolated layer probes: its
// own inputs and the size of its standing state.
type layerInputs struct {
	x *ixp.IXP
	// member announces corpus; its prefixes are registered in x's IRR.
	member *member.Member
	// corpus is the workload's wire-format UPDATEs, announce/withdraw
	// pairs.
	corpus [][]byte
	// flows is one victim port's offers.
	flows []fabric.Offer
	// standingPaths, standingMitigations and rulesPerPort size the
	// twins the probes build.
	standingPaths       int
	standingMitigations int
	rulesPerPort        int
}

// probeBudget is how long one isolated probe measures.
const probeBudget = 50 * time.Millisecond

// perCall runs fn in batches until the budget is spent (five batches at
// least) and returns each batch's ns per call. Batching keeps the two
// clock reads out of calls that take tens of ns.
func perCall(batch int, fn func(i int)) []float64 {
	var out []float64
	deadline := time.Now().Add(probeBudget)
	for i := 0; len(out) < 5 || time.Now().Before(deadline); {
		t0 := nowNs()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		out = append(out, float64(nowNs()-t0)/float64(batch))
	}
	return out
}

// timed returns how long fn took in ns.
func timed(fn func()) float64 {
	t0 := nowNs()
	fn()
	return float64(nowNs() - t0)
}

// sinks keep probe results alive so the calls are not optimized away.
var (
	sinkAny  any
	sinkRule *fabric.Rule
)

// probeLayers calls each layer's public functions on the workload's own
// inputs, outside the assembly, and reports their cost.
func probeLayers(in layerInputs, rep *report) error {
	p50 := func(name string, samples []float64, div float64, unit string) {
		rep.set(name, median(samples)/div, unit)
	}

	// bgp: the codec over the workload's UPDATE corpus.
	n := len(in.corpus)
	msgs := make([]bgp.Message, n)
	var codecErr error
	p50("bgp.unmarshal_ns_per_msg", perCall(n, func(i int) {
		m, _, err := bgp.Unmarshal(in.corpus[i%n], nil)
		if err != nil {
			codecErr = err
		}
		msgs[i%n] = m
	}), 1, "ns")
	if codecErr != nil {
		return fmt.Errorf("bgp.Unmarshal: %w", codecErr)
	}
	p50("bgp.marshal_ns_per_msg", perCall(n, func(i int) {
		b, err := bgp.Marshal(msgs[i%n], nil)
		if err != nil {
			codecErr = err
		}
		sinkAny = b
	}), 1, "ns")
	if codecErr != nil {
		return fmt.Errorf("bgp.Marshal: %w", codecErr)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, b := range in.corpus {
		sinkAny, _, _ = bgp.Unmarshal(b, nil)
	}
	runtime.ReadMemStats(&ms1)
	rep.set("bgp.unmarshal_allocs_per_msg", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count")
	updates := make([]*bgp.Update, n)
	var prefixes []netip.Prefix
	for i, m := range msgs {
		updates[i] = m.(*bgp.Update)
		for _, pp := range updates[i].NLRI {
			prefixes = append(prefixes, pp.Prefix)
		}
	}

	// rib: a table at the standing size.
	attrs := baseAttrs(in.member)
	tab := rib.New()
	key := func(i int) rib.PathKey {
		return rib.PathKey{Peer: "standing", PathID: 1,
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{40, byte(i >> 16), byte(i >> 8), byte(i)}), 32)}
	}
	for i := 0; i < in.standingPaths; i++ {
		tab.Add(key(i), 1, attrs)
	}
	p50("rib.add_remove_ns", perCall(256, func(i int) {
		k := key(in.standingPaths + i%4096)
		tab.Add(k, 1, attrs)
		tab.Remove(k)
	}), 1, "ns")
	p50("rib.snapshot_us", perCall(1, func(int) { sinkAny = tab.Snapshot() }), 1e3, "us")

	// irr: the import policy on the corpus prefixes.
	p50("irr.check_ns", perCall(1024, func(i int) {
		sinkAny = in.x.Policy.Check(prefixes[i%len(prefixes)], in.member.ASN)
	}), 1, "ns")

	// routeserver: a twin with the same peers, policy and standing paths
	// but no southbound subscriber.
	twin := routeserver.New(routeserver.Config{ASN: ixpASN, BlackholeNextHop: blackholeNH, Policy: in.x.Policy})
	for _, name := range in.x.RS.Peers() {
		m, err := in.x.Member(name)
		if err != nil {
			return err
		}
		if err := twin.AddPeer(routeserver.PeerConfig{Name: name, ASN: m.ASN, BGPID: m.BGPID}); err != nil {
			return err
		}
	}
	live := in.x.RS.Table()
	for _, p := range live.Prefixes() {
		for _, path := range live.Lookup(p) {
			u := &bgp.Update{Attrs: path.Attrs, NLRI: []bgp.PathPrefix{{Prefix: p}}}
			if _, _, err := twin.HandleUpdateBatch(path.Key.Peer, u); err != nil {
				return err
			}
		}
	}
	standingRejected := len(twin.Rejections())
	var exports, calls float64
	var rsErr error
	p50("routeserver.handle_update_us", perCall(1, func(i int) {
		out, _, err := twin.HandleUpdateBatch(in.member.Name, updates[i%n])
		if err != nil {
			rsErr = err
		}
		for _, e := range out {
			exports += float64(len(e.Updates))
		}
		calls++
	}), 1e3, "us")
	if rsErr != nil {
		return fmt.Errorf("twin route server: %w", rsErr)
	}
	rep.set("routeserver.exports_per_update", exports/calls, "count")
	rep.set("routeserver.rejected", float64(len(twin.Rejections())-standingRejected), "count")

	// mitctl: a twin controller and community channel over a twin
	// fabric, at the standing path and mitigation counts.
	const twinPorts = 64
	fab := fabric.New()
	index := make(map[string]int, twinPorts)
	for i := 0; i < twinPorts; i++ {
		name := fmt.Sprintf("twin%02d", i)
		if err := fab.AddPort(fabric.NewPort(name, netpkt.MAC{2, 0x40, 0, 0, 0, byte(i)}, 10e9)); err != nil {
			return err
		}
		index[name] = i
	}
	router := hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(twinPorts, hw.RTBHUnitN))
	mgr := core.NewQoSManager(fab, router, index)
	ctl := mitctl.New(mitctl.Config{Manager: mgr, QueueRate: 1e6, QueueBurst: 1 << 20})
	ch := mitctl.NewCommunityChannel(ctl)
	standing := routeserver.ControllerEvent{Peer: "standing", PeerAS: 1, PathID: 1, Attrs: attrs}
	for i := 0; i < in.standingPaths; i++ {
		standing.Announced = append(standing.Announced, key(i).Prefix)
	}
	ch.HandleEvent(standing, 0)
	dropNTP := core.DropUDPSrcPort(traffic.VectorNTP.SrcPort)
	spec := func(port string, host int) mitctl.Spec {
		return mitctl.Spec{Requester: port, Action: fabric.ActionDrop, Match: dropNTP.Match(fabric.MatchAll()),
			Target: netip.PrefixFrom(netip.AddrFrom4([4]byte{41, 0, byte(host >> 8), byte(host)}), 32)}
	}
	for i := 0; i < in.standingMitigations; i++ {
		if _, err := ctl.Request(spec(fmt.Sprintf("twin%02d", 1+i%(twinPorts-1)), i), 0); err != nil {
			return fmt.Errorf("twin controller standing mitigation: %w", err)
		}
	}
	now := 1.0
	ctl.Process(now)
	if got := len(ctl.Active()); got != in.standingMitigations {
		return fmt.Errorf("twin controller: %d standing mitigations active, want %d", got, in.standingMitigations)
	}
	sig, err := dropNTP.Encode()
	if err != nil {
		return err
	}
	sigAttrs := attrs.Clone()
	sigAttrs.ExtCommunities = []bgp.ExtCommunity{sig}
	victim := []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{42, 0, 0, 1}), 32)}
	ann := routeserver.ControllerEvent{Peer: "twin00", PeerAS: 2, PathID: 2, Announced: victim, Attrs: sigAttrs}
	wd := routeserver.ControllerEvent{Peer: "twin00", PeerAS: 2, PathID: 2, Withdrawn: victim}
	var events []float64
	a0 := totalAlloc()
	for deadline := time.Now().Add(2 * probeBudget); len(events) < 10 || time.Now().Before(deadline); {
		for _, ev := range []routeserver.ControllerEvent{ann, wd} {
			now += eventTickDt
			events = append(events, timed(func() { ch.HandleEvent(ev, now) }))
			ctl.Process(now)
		}
	}
	p50("mitctl.community_event_us", events, 1e3, "us")
	// Process allocates too; it is a small share next to the event's RIB
	// snapshot and stays in so one MemStats pair brackets the loop.
	rep.set("mitctl.community_event_alloc_kb", (totalAlloc()-a0)/float64(len(events))/1e3, "KB")
	if n := ctl.ErrorCount(); n > 0 {
		return fmt.Errorf("twin controller logged %d errors", n)
	}
	var requests, withdraws []float64
	direct := spec("twin00", 1<<15)
	for deadline := time.Now().Add(probeBudget); len(requests) < 10 || time.Now().Before(deadline); {
		now += eventTickDt
		var m mitctl.Mitigation
		var reqErr, wdErr error
		requests = append(requests, timed(func() { m, reqErr = ctl.Request(direct, now) }))
		ctl.Process(now)
		withdraws = append(withdraws, timed(func() { wdErr = ctl.Withdraw(m.ID, direct.Requester, now) }))
		ctl.Process(now)
		if reqErr != nil || wdErr != nil {
			return fmt.Errorf("twin controller: request %v, withdraw %v", reqErr, wdErr)
		}
	}
	if got := len(ctl.Active()); got != in.standingMitigations {
		return fmt.Errorf("twin controller: %d mitigations active after the probes, want %d", got, in.standingMitigations)
	}
	p50("mitctl.request_us", requests, 1e3, "us")
	p50("mitctl.withdraw_us", withdraws, 1e3, "us")

	// core and hw: the QoS manager's install/remove on a twin port that
	// holds its share of the standing rules, and the edge router's
	// admission on its own.
	change := core.ConfigChange{Member: "twin01", RuleID: "probe", Match: direct.Match, Action: fabric.ActionDrop}
	change.Match.DstIP = direct.Target
	var applyErr error
	p50("core.qos_apply_us", perCall(2, func(i int) {
		change.Op = core.OpInstall
		if i%2 == 1 {
			change.Op = core.OpRemove
		}
		if err := mgr.Apply(change); err != nil {
			applyErr = err
		}
	}), 1e3, "us")
	if applyErr != nil {
		return fmt.Errorf("QoSManager.Apply: %w", applyErr)
	}
	p50("hw.admit_ns", perCall(512, func(int) {
		if router.Allocate(0, 0, 3) == nil {
			_ = router.Release(0, 0, 3)
		}
	}), 1, "ns")

	// fabric: rule install + remove (one classifier recompile each) on a
	// port holding 16, 64 and 128 rules, then classification of the
	// workload's flows on a port at its standing rule count, memo warm
	// and on the first pass after a recompile.
	rule := func(i int) *fabric.Rule {
		m := fabric.MatchAll()
		m.Proto, m.SrcPort = netpkt.ProtoUDP, int32(1024+i)
		m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{43, 0, byte(i >> 8), byte(i)}), 32)
		return &fabric.Rule{ID: fmt.Sprintf("standing-%d", i), Match: m, Action: fabric.ActionDrop}
	}
	var ruleErr error
	churnRule := func(port *fabric.Port) {
		r := rule(1 << 14)
		if err := port.InstallRule(r); err != nil {
			ruleErr = err
		}
		if err := port.RemoveRule(r.ID); err != nil {
			ruleErr = err
		}
	}
	for _, size := range []int{16, 64, 128} {
		port := fabric.NewPort("probe", netpkt.MAC{2}, 10e9)
		for i := 0; i < size; i++ {
			if err := port.InstallRule(rule(i)); err != nil {
				return err
			}
		}
		p50(fmt.Sprintf("fabric.install_rule_us_%d", size), perCall(1, func(int) { churnRule(port) }), 1e3, "us")
	}
	port := fabric.NewPort("probe", netpkt.MAC{2}, 10e9)
	for i := 1; i < in.rulesPerPort; i++ {
		if err := port.InstallRule(rule(i)); err != nil {
			return err
		}
	}
	victimRule := &fabric.Rule{ID: "victim", Match: direct.Match, Action: fabric.ActionDrop}
	victimRule.Match.DstIP = netip.PrefixFrom(in.flows[0].Flow.Dst, 32)
	if err := port.InstallRule(victimRule); err != nil {
		return err
	}
	nf := len(in.flows)
	classify := func(i int) {
		o := &in.flows[i%nf]
		sinkRule = port.ClassifyHashed(o.Flow, o.FlowHash)
	}
	for i := 0; i < nf; i++ {
		classify(i)
	}
	p50("fabric.classify_warm_ns_per_flow", perCall(nf, classify), 1, "ns")
	var cold []float64
	for deadline := time.Now().Add(probeBudget); len(cold) < 5 || time.Now().Before(deadline); {
		churnRule(port)
		cold = append(cold, timed(func() {
			for i := 0; i < nf; i++ {
				classify(i)
			}
		})/float64(nf))
	}
	p50("fabric.classify_cold_ns_per_flow", cold, 1, "ns")
	if ruleErr != nil {
		return fmt.Errorf("fabric rule churn: %w", ruleErr)
	}

	// flowmon: one shard observing the workload's flows a bin at a
	// time, and the per-victim read the engine's monitor stage makes
	// behind the merge horizon.
	col := flowmon.NewCollectorShards(1)
	shard := col.Shard(0)
	keep := func(netpkt.MAC) bool { return true }
	var observe, read []float64
	for bin, deadline := 0, time.Now().Add(probeBudget); bin < 5 || time.Now().Before(deadline); bin++ {
		observe = append(observe, timed(func() {
			for i := range in.flows {
				shard.ObserveFlow(bin, in.flows[i].Flow, in.flows[i].Bytes)
			}
		})/float64(nf))
		col.SetMergeHorizon(bin)
		read = append(read, timed(func() { sinkAny = col.PeerCountFunc(bin, 1, keep) }))
	}
	p50("flowmon.observe_ns_per_record", observe, 1, "ns")
	p50("flowmon.read_us_per_victim_tick", read, 1e3, "us")
	return nil
}

// perLayer is the traced run: one set-up, a quarter of the run untraced
// and a quarter traced (their ratio is the tracing overhead), then the
// other workload family's spans on the same exchange and the isolated
// layer probes. Every per-layer metric comes from here; no end-to-end
// metric does.
func perLayer(w *workload, seed uint64, seconds float64, toy bool, traceOut string) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Trace: true, Metrics: make(map[string]metricValue)}
	inst, err := w.setup(seed, toy, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	own, comp := newRecorder(), newRecorder()
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	var untraced, traced phaseResult
	steps := []func() error{
		func() error { _, err := inst.warm(1, quarter/warmShare); return err },
		func() (err error) { untraced, err = runPhase(inst, quarter); return },
		func() (err error) {
			inst.setRecorder(own)
			defer inst.setRecorder(nil)
			traced, err = runPhase(inst, quarter)
			return
		},
		func() error { return inst.wireChain(comp, quarter/2) },
		func() error { return inst.engineProfile(comp) },
		func() error {
			in, err := inst.layers()
			if err != nil {
				return err
			}
			return probeLayers(in, rep)
		},
		inst.finish,
		func() error { return reconcile(own, comp) },
	}
	for _, step := range steps {
		if err = step(); err != nil {
			break
		}
	}
	rep.Attempted = max(untraced.attempted+traced.attempted, 1)
	rep.Failed = untraced.failed + traced.failed
	if err != nil {
		rep.Failed = max(rep.Failed, 1)
		return rep, err
	}
	rep.Correct = true
	deriveLayers(rep, own, comp)
	// The latency tail repeats too loosely to carry a regression bound, so
	// it is reported here, from the untraced phase, beside the layer
	// tails that explain it.
	tail, pct := tailQuantile(sortedCopy(untraced.latencies))
	rep.set("latency_ms_p99", tail/1e6, "ms")
	if pct != 99 {
		rep.notef("latency_ms_p99 holds p%.0f of %d samples", pct, len(untraced.latencies))
	}
	rep.set("bench.trace_overhead_share", 1-median(traced.opsPerSec)/median(untraced.opsPerSec), "ratio")
	rep.set("bench.generator_cpu_share", untraced.generatorNs/float64(untraced.wall), "ratio")
	rep.notef("untraced %d segments, traced %d segments; %d spans own, %d spans from the companion runs",
		len(untraced.opsPerSec), len(traced.opsPerSec), len(own.spans), len(comp.spans))
	if traceOut != "" {
		if err := own.writeJSONL(traceOut); err != nil {
			return rep, err
		}
		if err := comp.writeJSONL(traceOut + ".companion"); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// reconcile checks the wire chain: within every signal cycle the five
// child spans must add up to the cycle's signal-to-drop within 2%.
func reconcile(recs ...*recorder) error {
	for _, rec := range recs {
		roots := make(map[uint64]*span)
		children := make(map[uint64]int64)
		for i := range rec.spans {
			s := &rec.spans[i]
			if s.Layer == "bench" && s.Name == "signal_to_drop" {
				roots[s.Span] = s
			}
		}
		for i := range rec.spans {
			if s := &rec.spans[i]; roots[s.Parent] != nil {
				children[s.Parent] += s.End - s.Start
			}
		}
		for id, root := range roots {
			total := root.End - root.Start
			if diff := total - children[id]; float64(max(diff, -diff)) > 0.02*float64(total) {
				return fmt.Errorf("trace %d: spans add up to %d ns, signal-to-drop took %d ns", root.Trace, children[id], total)
			}
		}
		if len(roots) > 0 {
			return nil
		}
	}
	return fmt.Errorf("no signal cycle was traced")
}

// deriveLayers turns spans and counts into the per-layer metrics. A
// metric reads the workload's own traced spans where it produced any,
// the companion run's otherwise.
func deriveLayers(rep *report, own, comp *recorder) {
	from := func(layer, name string) (*recorder, []float64) {
		if d := own.durations(layer, name); len(d) > 0 {
			return own, d
		}
		return comp, comp.durations(layer, name)
	}
	spanMetric := func(metric, layer, name string, withTail bool) {
		_, d := from(layer, name)
		s := sortedCopy(d)
		rep.set(metric, quantile(s, 0.5)/1e3, "us")
		if withTail {
			tail, pct := tailQuantile(s)
			rep.set(metric+"_p99", tail/1e3, "us")
			if pct != 99 {
				rep.notef("%s_p99 holds p%.0f of %d samples", metric, pct, len(s))
			}
		}
	}
	spanMetric("bgppipe.rx_us", "bgppipe", "rx", true)
	spanMetric("routeserver.apply_us", "routeserver", "apply", true)
	spanMetric("ixp.handoff_us", "ixp", "handoff", true)
	spanMetric("mitctl.process_us", "mitctl", "process", true)
	spanMetric("ixp.control_tick_us", "ixp", "control_tick", false)
	spanMetric("ixp.egress_tick_us", "ixp", "egress_tick", true)

	rec, egress := from("ixp", "egress_tick")
	rep.set("fabric.egress_ns_per_flow", sum(egress)/rec.counter("fabric.flows"), "ns")
	rec, appends := from("traffic", "append")
	rep.set("traffic.append_ns_per_flow", sum(appends)/rec.counter("traffic.flows"), "ns")
	rec = comp
	if own.counter("routeserver.applied") > 0 {
		rec = own
	}
	rep.set("bgppipe.tx_msgs_per_update", rec.counter("bgppipe.tx_msgs")/rec.counter("routeserver.applied"), "count")

	rec, periods := from("engine", "tick")
	ticks := rec.counter("engine.ticks")
	var spine float64
	for _, stage := range []string{"control", "traffic", "fabric", "monitor", "report", "spine_wait", "fold_wait"} {
		ns := rec.counter("engine." + stage + "_ns")
		rep.set("engine."+stage+"_us_per_tick", ns/ticks/1e3, "us")
		switch stage {
		case "control", "traffic", "fabric", "spine_wait":
			spine += ns
		}
	}
	// What the spine loop spends outside its stages and outside waiting
	// for the fold side: events, batch hand-over, channel operations.
	rep.set("engine.overhead_us_per_tick", (rec.counter("engine.wall_ns")-spine)/ticks/1e3, "us")
	tail, _ := tailQuantile(sortedCopy(periods))
	rep.set("engine.tick_period_us_p99", tail/1e3, "us")
	rep.set("flowmon.retained_kb_per_victim_bin", rec.counter("flowmon.retained_bytes")/rec.counter("flowmon.victim_bins")/1e3, "KB")
}
