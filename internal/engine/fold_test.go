package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
)

// tickSource emits one flow per tick from a source MAC that encodes
// the tick, so a MemberFilter — which the monitor step calls for every
// peer of the tick it folds — sees which ticks the fold side runs.
type tickSource struct{ seed int }

func (s tickSource) Offers(tick int, dt float64) []fabric.Offer {
	o := newFlowSource(s.seed).AppendOffers(nil, tick, dt)
	o[0].Flow.SrcMAC[4] = byte(tick)
	o[0].FlowHash = o[0].Flow.Hash()
	return o
}

// TestEngineNoFoldPastErrorTick is the regression for the abort
// contract at every depth: once a run fails at tick E — on the spine or
// on the fold side — the fold side never monitors a tick past E (nor E
// itself unless the failure struck there), while backlog ticks below E
// still fold (the partial-samples contract).
func TestEngineNoFoldPastErrorTick(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		// probe arms cfg with tick-encoding sources and a MemberFilter
		// that records every tick the monitor step reads, failing with
		// a panic at panicTick (-1: never).
		probe := func(cfg *Config, panicTick int) func() []int {
			specs := cfg.Driver.Victims()
			sources := make([][]Source, len(specs))
			for v := range specs {
				sources[v] = []Source{tickSource{seed: v}}
			}
			cfg.Driver = NewSourcesDriver(specs, sources)
			var mu sync.Mutex
			var seen []int
			cfg.MemberFilter = func(mac netpkt.MAC) bool {
				tick := int(mac[4])
				mu.Lock()
				seen = append(seen, tick)
				mu.Unlock()
				if tick == panicTick {
					panic("deliberate fold failure")
				}
				return true
			}
			return func() []int {
				mu.Lock()
				defer mu.Unlock()
				return append([]int(nil), seen...)
			}
		}
		check := func(t *testing.T, series []VictimSeries, seen []int, errTick, lastMonitored int) {
			t.Helper()
			for _, tick := range seen {
				if tick > lastMonitored {
					t.Fatalf("depth %d: monitor step ran tick %d past error tick %d\nseen: %v", depth, tick, errTick, seen)
				}
			}
			for v := range series {
				if len(series[v].Samples) != errTick {
					t.Fatalf("depth %d victim %d: %d samples, want %d", depth, v, len(series[v].Samples), errTick)
				}
			}
		}

		t.Run(fmt.Sprintf("spine-stage-error/depth=%d", depth), func(t *testing.T) {
			cfg := testConfig(2, 12, depth)
			plane := newFakePlane()
			plane.failAtTick = 6
			cfg.DataPlane = plane
			seen := probe(&cfg, -1)
			series, err := New(cfg).Run()
			if err == nil || !strings.Contains(err.Error(), "fabric stage at tick 6") {
				t.Fatalf("err = %v", err)
			}
			check(t, series, seen(), 6, 5)
		})

		t.Run(fmt.Sprintf("event-error/depth=%d", depth), func(t *testing.T) {
			cfg := testConfig(2, 12, depth)
			cfg.Events = []Event{{Tick: 4, Name: "boom", Do: func() error {
				return fmt.Errorf("deliberate")
			}}}
			seen := probe(&cfg, -1)
			series, err := New(cfg).Run()
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v", err)
			}
			check(t, series, seen(), 4, 3)
		})

		t.Run(fmt.Sprintf("fold-stage-error/depth=%d", depth), func(t *testing.T) {
			cfg := testConfig(2, 12, depth)
			seen := probe(&cfg, 5)
			series, err := New(cfg).Run()
			if err == nil || !strings.Contains(err.Error(), "monitor stage at tick 5") {
				t.Fatalf("err = %v", err)
			}
			check(t, series, seen(), 5, 5)
		})
	}
}

// TestEngineMultiWorkerFoldErrors drives a multi-worker, multi-victim,
// Depth > 1 run into each failure mode and pins the same contract
// through the observable output: the series holds exactly the ticks
// below the error tick, in order.
func TestEngineMultiWorkerFoldErrors(t *testing.T) {
	for _, depth := range []int{2, 4, 8} {
		depth := depth
		checkSeries(t, fmt.Sprintf("spine-stage-error/depth=%d", depth), func(t *testing.T) ([]VictimSeries, error) {
			cfg := testConfig(3, 12, depth)
			cfg.Pool = testPool(t, 4)
			plane := newFakePlane()
			plane.failAtTick = 6
			cfg.DataPlane = plane
			return New(cfg).Run()
		}, "fabric stage at tick 6", 6)

		checkSeries(t, fmt.Sprintf("event-error/depth=%d", depth), func(t *testing.T) ([]VictimSeries, error) {
			cfg := testConfig(3, 12, depth)
			cfg.Pool = testPool(t, 4)
			cfg.Events = []Event{{Tick: 4, Name: "boom", Do: func() error {
				return fmt.Errorf("deliberate")
			}}}
			return New(cfg).Run()
		}, "boom", 4)

		checkSeries(t, fmt.Sprintf("fold-panic/depth=%d", depth), func(t *testing.T) ([]VictimSeries, error) {
			// MemberFilter runs inside the monitor stage on the fold
			// goroutine; a panic there must surface as a monitor-stage tick
			// error, not kill the process. The panicking call count puts
			// the error around tick 4 (3 victims x 1 peer per tick); the
			// exact tick is read back from the error message.
			cfg := testConfig(3, 12, depth)
			cfg.Pool = testPool(t, 4)
			var calls atomic.Int64
			cfg.MemberFilter = func(netpkt.MAC) bool {
				if calls.Add(1) > 3*4 {
					panic("deliberate fold panic")
				}
				return true
			}
			return New(cfg).Run()
		}, "monitor stage at tick", -1)
	}
}

// checkSeries runs the case and asserts the series is exactly the ticks
// below the error tick. errTick < 0 parses the tick from the error
// message ("at tick %d") instead of pinning it.
func checkSeries(t *testing.T, name string, run func(*testing.T) ([]VictimSeries, error), wantErr string, errTick int) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		series, err := run(t)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("err = %v", err)
		}
		if errTick < 0 {
			i := strings.Index(err.Error(), "at tick ")
			if i < 0 {
				t.Fatalf("error has no tick: %v", err)
			}
			fmt.Sscanf(err.Error()[i+len("at tick "):], "%d", &errTick)
		}
		for v := range series {
			if len(series[v].Samples) > errTick {
				t.Fatalf("victim %d: %d samples past error tick %d (err %v)", v, len(series[v].Samples), errTick, err)
			}
			for i, s := range series[v].Samples {
				if s.Tick != i {
					t.Fatalf("victim %d sample %d has tick %d", v, i, s.Tick)
				}
			}
		}
	})
}

// TestEngineSharedMonitorRejected: one collector under two victims
// would mix both ports' flows into the same bins, so the engine rejects
// the configuration up front.
func TestEngineSharedMonitorRejected(t *testing.T) {
	cfg := testConfig(2, 4, 2)
	specs := cfg.Driver.Victims()
	shared := flowmon.NewCollector()
	specs[0].Monitor = shared
	specs[1].Monitor = shared
	cfg.Driver = NewSourcesDriver(specs, [][]Source{{newFlowSource(0)}, {newFlowSource(1)}})
	if _, err := New(cfg).Run(); err == nil || !strings.Contains(err.Error(), "shares its monitor") {
		t.Fatalf("shared monitor accepted: %v", err)
	}
}

// TestEngineStageProfile: Config.Profile attaches one shared profile to
// every series, with every stage accounted and the tick counter run to
// completion — every stage, the monitor included, counts one run per
// tick.
func TestEngineStageProfile(t *testing.T) {
	const victims, ticks = 3, 20
	cfg := testConfig(victims, ticks, 4)
	cfg.Pool = testPool(t, 4)
	cfg.Profile = true
	series, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	prof := series[0].Profile
	if prof == nil {
		t.Fatal("Profile not attached")
	}
	for v := range series {
		if series[v].Profile != prof {
			t.Fatalf("victim %d has a different profile pointer", v)
		}
	}
	if prof.Ticks != ticks {
		t.Fatalf("Ticks = %d, want %d", prof.Ticks, ticks)
	}
	want := []string{"control", "traffic", "fabric", "monitor", "report"}
	if len(prof.Stages) != len(want) {
		t.Fatalf("%d stage slots, want %d", len(prof.Stages), len(want))
	}
	for i, st := range prof.Stages {
		if st.Name != want[i] {
			t.Fatalf("stage %d is %q, want %q", i, st.Name, want[i])
		}
		if st.Runs == 0 {
			t.Fatalf("stage %q counted no runs", st.Name)
		}
	}
	if got := prof.Stages[profSlotMonitor].Runs; got != ticks {
		t.Fatalf("monitor runs = %d, want %d", got, ticks)
	}
	if got := prof.Stages[profSlotControl].Runs; got != ticks {
		t.Fatalf("control runs = %d, want %d", got, ticks)
	}

	// Profiling off: no profile allocated, series carry nil.
	cfg2 := testConfig(1, 2, 1)
	series2, err := New(cfg2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if series2[0].Profile != nil {
		t.Fatal("Profile attached without Config.Profile")
	}
}

// TestEngineDeepDepthEquivalence extends the depth sweep to a
// multi-worker pool: depths 2/4/8 must reproduce the fully serial
// depth-1 output byte for byte.
func TestEngineDeepDepthEquivalence(t *testing.T) {
	const victims, ticks = 4, 50
	run := func(depth, workers int) []VictimSeries {
		t.Helper()
		cfg := testConfig(victims, ticks, depth)
		cfg.Pool = testPool(t, workers)
		series, err := New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	want := run(1, 1)
	for _, depth := range []int{2, 4, 8} {
		requireSameSeries(t, fmt.Sprintf("depth %d", depth), run(depth, 4), want)
	}
}

// requireSameSeries fails unless got and want hold identical samples and
// identical monitor contents, victim for victim and tick for tick.
func requireSameSeries(t *testing.T, label string, got, want []VictimSeries) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d victims, want %d", label, len(got), len(want))
	}
	for v := range want {
		if len(got[v].Samples) != len(want[v].Samples) {
			t.Fatalf("%s victim %d: %d samples, want %d",
				label, v, len(got[v].Samples), len(want[v].Samples))
		}
		for i := range want[v].Samples {
			if got[v].Samples[i] != want[v].Samples[i] {
				t.Fatalf("%s victim %d tick %d: %+v != %+v",
					label, v, i, got[v].Samples[i], want[v].Samples[i])
			}
		}
		gb, gv := got[v].Monitor.Series()
		wb, wv := want[v].Monitor.Series()
		if fmt.Sprint(gb, gv) != fmt.Sprint(wb, wv) {
			t.Fatalf("%s victim %d: monitor series diverged", label, v)
		}
	}
}
