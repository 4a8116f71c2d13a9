package engine

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// fakePlane is a deterministic data plane: every offered byte is
// delivered, and each port's flows stream into the sink exactly once.
type fakePlane struct {
	failAtTick int // tick whose EgressTick errors (-1: never)
	tick       atomic.Int64
}

func newFakePlane() *fakePlane { return &fakePlane{failAtTick: -1} }

func (p *fakePlane) EgressTick(r fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]PortReport, error) {
	tick := int(p.tick.Add(1)) - 1
	if tick == p.failAtTick {
		return nil, fmt.Errorf("fake egress failure")
	}
	reports := make(map[string]PortReport, len(offers))
	for port, os := range offers {
		var sum float64
		delivered := make([]fabric.Delivery, len(os))
		for i := range os {
			sum += os[i].Bytes
			delivered[i] = fabric.Delivery{Offer: &os[i], Bytes: os[i].Bytes}
		}
		if sink != nil {
			if visit := sink(0, port); visit != nil {
				visit(delivered)
			}
		}
		reports[port] = PortReport{
			OfferedBytes: sum,
			Result:       fabric.TickResult{DeliveredBytes: sum},
		}
	}
	return reports, nil
}

// fakeControl records the spine's strict tick order.
type fakeControl struct {
	mu    sync.Mutex
	ticks []int
}

func (c *fakeControl) ControlTick(tick int, dt float64) float64 {
	c.mu.Lock()
	c.ticks = append(c.ticks, tick)
	c.mu.Unlock()
	return float64(tick+1) * dt
}

func (c *fakeControl) seen() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.ticks...)
}

// flowSource emits one deterministic flow per tick whose byte count
// encodes (seed, tick), so any reordering or loss shows up in the
// series.
type flowSource struct {
	seed int
	mac  netpkt.MAC
}

func newFlowSource(seed int) *flowSource {
	return &flowSource{seed: seed, mac: netpkt.MAC{0x02, 0x99, 0, 0, 0, byte(seed)}}
}

func (s *flowSource) AppendOffers(dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	flow := netpkt.FlowKey{
		SrcMAC:  s.mac,
		Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(s.seed)}),
		Dst:     netip.AddrFrom4([4]byte{100, 64, 0, byte(s.seed)}),
		Proto:   netpkt.ProtoUDP,
		SrcPort: 123,
		DstPort: 443,
	}
	return append(dst, fabric.Offer{
		Flow:    &flow,
		Bytes:   float64(1e6 + s.seed*1000 + tick),
		Packets: 10,
	})
}

// testPool returns an n-worker pool closed when the test ends — how a
// test pins the fan-out above 1 even on a single-CPU host.
func testPool(t testing.TB, n int) *fabric.Pool {
	p := fabric.NewPool(n)
	t.Cleanup(p.Close)
	return p
}

func testConfig(victims, ticks, depth int) Config {
	specs := make([]VictimSpec, victims)
	sources := make([][]Source, victims)
	for v := range specs {
		specs[v] = VictimSpec{Port: fmt.Sprintf("port%d", v)}
		sources[v] = []Source{newFlowSource(v)}
	}
	return Config{
		Driver:    NewSourcesDriver(specs, sources),
		Control:   &fakeControl{},
		DataPlane: newFakePlane(),
		Ticks:     ticks,
		Dt:        1,
		Depth:     depth,
	}
}

// TestEngineDepthEquivalence pins the pipelined run (depth 2 and 4) to
// the fully serial one (depth 1): identical samples and identical
// monitor contents, tick for tick.
func TestEngineDepthEquivalence(t *testing.T) {
	const victims, ticks = 3, 40
	run := func(depth int) []VictimSeries {
		t.Helper()
		series, err := New(testConfig(victims, ticks, depth)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	want := run(1)
	for _, depth := range []int{2, 4} {
		requireSameSeries(t, fmt.Sprintf("depth %d", depth), run(depth), want)
	}
}

// TestEngineSpineOrder pins the spine's serialization contract: events
// of tick T run after tick T-1's control advance and before tick T's,
// same-tick events in Config.Events list order however the ticks are
// interleaved in the list.
func TestEngineSpineOrder(t *testing.T) {
	var log []string // spine-only, no lock needed
	ctl := &spyControl{hook: func(tick int) { log = append(log, fmt.Sprintf("control%d", tick)) }}
	mark := func(tick int, name string) Event {
		return Event{Tick: tick, Name: name, Do: func() error {
			log = append(log, name)
			return nil
		}}
	}
	cfg := testConfig(1, 4, 2)
	cfg.Control = ctl
	cfg.Events = []Event{mark(2, "b"), mark(1, "a"), mark(2, "c"), mark(3, "d"), mark(2, "e")}
	if _, err := New(cfg).Run(); err != nil {
		t.Fatal(err)
	}
	want := "control0 a control1 b c e control2 d control3"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("spine order:\n got %s\nwant %s", got, want)
	}
}

type spyControl struct {
	hook func(tick int)
	tick int
}

func (c *spyControl) ControlTick(tick int, dt float64) float64 {
	c.hook(tick)
	c.tick = tick
	return float64(tick+1) * dt
}

// TestEnginePartialSamplesOnEventError pins the abort contract: a
// failing event surfaces alongside the samples of every tick fully
// folded before it.
func TestEnginePartialSamplesOnEventError(t *testing.T) {
	cfg := testConfig(2, 10, 2)
	cfg.Events = []Event{{Tick: 4, Name: "boom", Do: func() error {
		return fmt.Errorf("deliberate")
	}}}
	series, err := New(cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	for v := range series {
		if len(series[v].Samples) != 4 {
			t.Fatalf("victim %d: %d partial samples, want 4", v, len(series[v].Samples))
		}
	}
}

// TestEnginePartialSamplesOnStageError: a data-plane failure mid-run
// truncates the series to the fully folded ticks and names the stage.
func TestEnginePartialSamplesOnStageError(t *testing.T) {
	cfg := testConfig(1, 10, 2)
	plane := newFakePlane()
	plane.failAtTick = 6
	cfg.DataPlane = plane
	series, err := New(cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "fabric stage") {
		t.Fatalf("err = %v", err)
	}
	if len(series[0].Samples) != 6 {
		t.Fatalf("%d partial samples, want 6", len(series[0].Samples))
	}
	for i, s := range series[0].Samples {
		if s.Tick != i {
			t.Fatalf("sample %d has tick %d", i, s.Tick)
		}
	}
}

// TestEngineValidation covers the config error paths.
func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{}).Run(); err == nil {
		t.Fatal("no data plane accepted")
	}
	if _, err := New(Config{DataPlane: newFakePlane()}).Run(); err == nil {
		t.Fatal("no driver accepted")
	}
	empty := Config{DataPlane: newFakePlane(),
		Driver: NewSourcesDriver(nil, nil), Ticks: 1}
	if _, err := New(empty).Run(); err == nil {
		t.Fatal("driver with no victims accepted")
	}
	dup := testConfig(1, 1, 1)
	dup.Driver = NewSourcesDriver(
		[]VictimSpec{{Port: "p"}, {Port: "p"}},
		[][]Source{{newFlowSource(0)}, {newFlowSource(1)}})
	if _, err := New(dup).Run(); err == nil {
		t.Fatal("duplicate victim port accepted")
	}
	if _, err := New(testConfig(1, -1, 1)).Run(); err == nil {
		t.Fatal("negative Ticks accepted")
	}
	// A negative event tick would sort first and stall every later
	// event: reject it rather than silently fire nothing.
	fired := 0
	neg := testConfig(1, 5, 1)
	neg.Events = []Event{
		{Tick: -1, Name: "before the run", Do: func() error { fired++; return nil }},
		{Tick: 2, Name: "in the run", Do: func() error { fired++; return nil }},
	}
	if _, err := New(neg).Run(); err == nil || fired != 0 {
		t.Fatalf("negative event tick: err %v, %d events fired", err, fired)
	}
	// A negative Dt would run the control plane's clock backwards.
	for _, dt := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig(1, 2, 1)
		cfg.Dt = dt
		if _, err := New(cfg).Run(); err == nil {
			t.Fatalf("Dt %v accepted", dt)
		}
	}
	zero := testConfig(1, 2, 1)
	zero.Dt = 0
	if series, err := New(zero).Run(); err != nil || series[0].Samples[1].Time != 1 {
		t.Fatalf("Dt 0 must default to 1s: err %v", err)
	}
	series, err := New(testConfig(2, 0, 2)).Run()
	if err != nil {
		t.Fatalf("Ticks 0: %v", err)
	}
	for v := range series {
		if len(series[v].Samples) != 0 {
			t.Fatalf("Ticks 0: victim %d has %d samples", v, len(series[v].Samples))
		}
	}
}

// TestEnginePipelinesAndBackpressures proves the two scheduling claims:
// with Depth=2 the spine starts tick N+1 while tick N is still folding
// (pipelining), and it cannot start tick N+2 until tick N folded
// (backpressure). The fold side is gated through the member set's Has,
// which the monitor stage calls while deriving tick 0's peer count.
func TestEnginePipelinesAndBackpressures(t *testing.T) {
	const ticks = 5
	gate := make(chan struct{})
	started := make(chan int, ticks)
	var once sync.Once
	cfg := testConfig(1, ticks, 2)
	ctl := &spyControl{hook: func(tick int) { started <- tick }}
	cfg.Control = ctl
	cfg.MemberFilter = hookFilter(func(netpkt.MAC) bool {
		once.Do(func() { <-gate }) // block the fold of tick 0 only
		return true
	})

	done := make(chan error, 1)
	var series []VictimSeries
	go func() {
		var err error
		series, err = New(cfg).Run()
		done <- err
	}()

	expectStart := func(want int) {
		t.Helper()
		select {
		case got := <-started:
			if got != want {
				t.Fatalf("spine started tick %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("spine never started tick %d", want)
		}
	}
	// Pipelining: ticks 0 and 1 start although tick 0 never folded.
	expectStart(0)
	expectStart(1)
	// Backpressure: tick 2 must not start while tick 0's fold is gated.
	select {
	case got := <-started:
		t.Fatalf("spine started tick %d past the depth-2 window", got)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	for want := 2; want < ticks; want++ {
		expectStart(want)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(series[0].Samples) != ticks {
		t.Fatalf("%d samples, want %d", len(series[0].Samples), ticks)
	}
}

// TestEngineMonitorsReadableAfterRun: the merge horizon is lifted when
// the run ends, so accessors see every bin.
func TestEngineMonitorsReadableAfterRun(t *testing.T) {
	cfg := testConfig(2, 8, 2)
	series, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := range series {
		bins := series[v].Monitor.Bins()
		if len(bins) != 8 {
			t.Fatalf("victim %d: %d bins, want 8", v, len(bins))
		}
		if tops := series[v].Monitor.TopSrcPorts(1); len(tops) == 0 || tops[0].Port != 123 {
			t.Fatalf("victim %d: top ports %+v", v, tops)
		}
	}
}

// panicDriver panics while generating tick at.
type panicDriver struct {
	Driver
	at int
}

func (d panicDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	if tick == d.at {
		panic("deliberate driver panic")
	}
	return d.Driver.AppendOffers(v, dst, tick, dt)
}

// TestWatchdogIsolatesRunPanic: an event, the control plane or the
// driver panicking on the spine surfaces as that tick's error naming
// the step, with the series truncated to exactly the ticks below it, at
// every depth — the run dies loudly but the process does not.
func TestWatchdogIsolatesRunPanic(t *testing.T) {
	cases := []struct {
		name, where string
		at          int
		arm         func(cfg *Config, at int)
	}{
		{"event", `event "boom"`, 4, func(cfg *Config, at int) {
			cfg.Events = []Event{{Tick: at, Name: "boom", Do: func() error { panic("deliberate event panic") }}}
		}},
		{"control", "control stage", 5, func(cfg *Config, at int) {
			cfg.Control = &spyControl{hook: func(tick int) {
				if tick == at {
					panic("deliberate control panic")
				}
			}}
		}},
		{"driver", "traffic stage", 3, func(cfg *Config, at int) {
			// One victim: the pool runs a single-victim fan-out inline
			// on the spine.
			cfg.Driver = panicDriver{Driver: cfg.Driver, at: at}
		}},
	}
	for _, tc := range cases {
		for _, depth := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/depth=%d", tc.name, depth), func(t *testing.T) {
				cfg := testConfig(1, 10, depth)
				tc.arm(&cfg, tc.at)
				series, err := New(cfg).Run()
				want := fmt.Sprintf("%s at tick %d panicked: deliberate %s panic", tc.where, tc.at, tc.name)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if len(series[0].Samples) != tc.at {
					t.Fatalf("%d samples, want the %d below the panic tick", len(series[0].Samples), tc.at)
				}
			})
		}
	}
}

// TestWatchdogNoTimeoutNoGoroutines: a run leaves no goroutine behind —
// the fold goroutine and the engine-owned pool's workers are gone once
// Run returns, after a clean run and after an aborted one alike.
func TestWatchdogNoTimeoutNoGoroutines(t *testing.T) {
	for _, fail := range []bool{false, true} {
		before := runtime.NumGoroutine()
		cfg := testConfig(2, 20, 2)
		if fail {
			cfg.Events = []Event{{Tick: 7, Name: "boom", Do: func() error { return fmt.Errorf("deliberate") }}}
		}
		if _, err := New(cfg).Run(); (err != nil) != fail {
			t.Fatalf("fail=%v: err = %v", fail, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("fail=%v: %d goroutines before run, %d after", fail, before, after)
		}
	}
}

// TestWarmPortTickThroughBatchVisitorAllocs pins the monitor side of a
// port's egress: once the worker's shard has grown its tables, one port
// tick — the run's sink looked up, the delivered flows handed over as
// one batch and observed under one lock — allocates nothing. The
// egress side's own pin is the fabric package's.
func TestWarmPortTickThroughBatchVisitorAllocs(t *testing.T) {
	const senders = 256
	r, err := wire(testConfig(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	offers := make([]fabric.Offer, 2*senders)
	delivered := make([]fabric.Delivery, len(offers))
	for i := range offers {
		flow := netpkt.FlowKey{
			SrcMAC:  netpkt.MAC{0x02, 0x99, 0, 0, byte(i / 2 >> 8), byte(i / 2)},
			Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{100, 64, 0, 1}),
			Proto:   netpkt.ProtoUDP,
			SrcPort: uint16(1000 + i%7),
			DstPort: 443,
		}
		offers[i] = fabric.Offer{Flow: &flow, Bytes: 1e4, Packets: 10}
		delivered[i] = fabric.Delivery{Offer: &offers[i], Bytes: offers[i].Bytes}
	}
	portTick := func() { r.sink(0, "port0")(delivered) }
	portTick() // grow the shard's tables
	if got := testing.AllocsPerRun(50, portTick); got != 0 {
		t.Fatalf("warm port tick: %v allocations, want 0", got)
	}
	if got := r.monitors[0].PeerCount(0, 0, nil); got != senders {
		t.Fatalf("monitor saw %d senders, want %d", got, senders)
	}
}

// fabricPlane egresses through a real fabric and, with churnControl,
// counts the port-state writers that overlap another: egress ticks and
// rule changes. A port's positions serve one egress at a time, and a
// rule change that leaves a port rule-free empties them under their
// lock, so an egress that overlaps either scans every offer instead.
type fabricPlane struct {
	f                  *fabric.Fabric
	inFlight, overlaps atomic.Int64
}

// enter marks a writer running; the returned func marks it done.
func (p *fabricPlane) enter() func() {
	if p.inFlight.Add(1) > 1 {
		p.overlaps.Add(1)
	}
	return func() { p.inFlight.Add(-1) }
}

func (p *fabricPlane) EgressTick(r fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]PortReport, error) {
	defer p.enter()()
	stats, err := p.f.Tick(r, offers, dt, sink)
	if err != nil {
		return nil, err
	}
	reports := make(map[string]PortReport, len(stats.PerPort))
	for name, res := range stats.PerPort {
		reports[name] = PortReport{OfferedBytes: res.PresentedBytes, Result: res}
	}
	return reports, nil
}

// churnControl withdraws every port's one rule on odd ticks and
// re-announces it on even ones, counting as a writer of plane.
type churnControl struct {
	plane *fabricPlane
	ports []*fabric.Port
	rule  []*fabric.Rule
}

func (c *churnControl) ControlTick(tick int, dt float64) float64 {
	defer c.plane.enter()()
	for i, p := range c.ports {
		var err error
		if tick%2 == 1 {
			err = p.RemoveRule(c.rule[i].ID)
		} else if tick > 0 {
			err = p.InstallRule(c.rule[i])
		}
		if err != nil {
			panic(err)
		}
	}
	return float64(tick+1) * dt
}

// TestPortEgressesNeverOverlap pins at zero the egress ticks that
// cannot take their port's positions, at Depth 1 and at Depth 4 on a
// four-worker pool: an egress finds the positions held only while
// another egress of the port, or a rule change emptying them, is
// running, and the spine runs one tick's control and egress steps at a
// time, however far the fold side trails it.
func TestPortEgressesNeverOverlap(t *testing.T) {
	const victims = 4
	for _, depth := range []int{1, 4} {
		cfg := testConfig(victims, 60, depth)
		cfg.Pool = testPool(t, 4)
		plane := &fabricPlane{f: fabric.New()}
		control := &churnControl{plane: plane}
		drop := fabric.MatchAll()
		drop.Proto, drop.SrcPort = netpkt.ProtoUDP, 123
		for v := 0; v < victims; v++ {
			port := fabric.NewPort(fmt.Sprintf("port%d", v), netpkt.MAC{0x02, 0x10, 0, 0, 0, byte(v)}, 1e9)
			rule := &fabric.Rule{ID: "drop-ntp", Match: drop, Action: fabric.ActionDrop}
			if err := port.InstallRule(rule); err != nil {
				t.Fatal(err)
			}
			if err := plane.f.AddPort(port); err != nil {
				t.Fatal(err)
			}
			control.ports = append(control.ports, port)
			control.rule = append(control.rule, rule)
		}
		cfg.DataPlane, cfg.Control = plane, control
		if _, err := New(cfg).Run(); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if n := plane.overlaps.Load(); n != 0 {
			t.Fatalf("depth %d: %d egress ticks or rule changes overlapped another", depth, n)
		}
	}
}
