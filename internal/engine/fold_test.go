package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
)

// foldRecorder decorates a stage to log every Fold(tick) — the probe
// for the abort contract.
type foldRecorder struct {
	Stage
	mu    *sync.Mutex
	folds *[]string
	fail  func(tick int) error // optional Run failure injection
}

func (r *foldRecorder) Fold(tick int) {
	r.mu.Lock()
	*r.folds = append(*r.folds, fmt.Sprintf("%s:%d", r.Stage.Name(), tick))
	r.mu.Unlock()
	r.Stage.Fold(tick)
}

func (r *foldRecorder) Run(ctx *Ctx, in, out *Batch) error {
	if r.fail != nil {
		if err := r.fail(ctx.Tick); err != nil {
			return err
		}
	}
	return r.Stage.Run(ctx, in, out)
}

// TestEngineNoFoldPastErrorTick is the regression for the abort
// contract at every depth: once a run fails at tick E — on the spine or
// on the fold side — no stage Fold ever runs for a tick >= E, while
// backlog ticks below E still fold (the partial-samples contract).
func TestEngineNoFoldPastErrorTick(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		check := func(t *testing.T, folds []string, errTick int) {
			t.Helper()
			for _, f := range folds {
				var tick int
				name := f[:strings.IndexByte(f, ':')]
				fmt.Sscanf(f[strings.IndexByte(f, ':')+1:], "%d", &tick)
				if (name == "monitor" || name == "report") && tick >= errTick {
					t.Fatalf("depth %d: fold-side Fold(%d) ran at or past error tick %d\nfolds: %v", depth, tick, errTick, folds)
				}
			}
		}
		wrap := func(cfg *Config) (*sync.Mutex, *[]string) {
			mu := &sync.Mutex{}
			folds := &[]string{}
			cfg.StageWrap = func(s Stage) Stage {
				return &foldRecorder{Stage: s, mu: mu, folds: folds}
			}
			return mu, folds
		}

		t.Run(fmt.Sprintf("spine-stage-error/depth=%d", depth), func(t *testing.T) {
			cfg := testConfig(2, 12, depth)
			plane := newFakePlane()
			plane.failAtTick = 6
			cfg.DataPlane = plane
			_, folds := wrap(&cfg)
			series, err := New(cfg).Run()
			if err == nil || !strings.Contains(err.Error(), "fabric stage at tick 6") {
				t.Fatalf("err = %v", err)
			}
			check(t, *folds, 6)
			if len(series[0].Samples) != 6 {
				t.Fatalf("%d samples, want 6", len(series[0].Samples))
			}
		})

		t.Run(fmt.Sprintf("event-error/depth=%d", depth), func(t *testing.T) {
			cfg := testConfig(2, 12, depth)
			cfg.Events = []Event{{Tick: 4, Name: "boom", Do: func() error {
				return fmt.Errorf("deliberate")
			}}}
			_, folds := wrap(&cfg)
			series, err := New(cfg).Run()
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v", err)
			}
			check(t, *folds, 4)
			if len(series[0].Samples) != 4 {
				t.Fatalf("%d samples, want 4", len(series[0].Samples))
			}
		})

		t.Run(fmt.Sprintf("fold-stage-error/depth=%d", depth), func(t *testing.T) {
			cfg := testConfig(2, 12, depth)
			mu := &sync.Mutex{}
			folds := &[]string{}
			cfg.StageWrap = func(s Stage) Stage {
				r := &foldRecorder{Stage: s, mu: mu, folds: folds}
				if s.Name() == "monitor" {
					r.fail = func(tick int) error {
						if tick == 5 {
							return fmt.Errorf("deliberate fold failure")
						}
						return nil
					}
				}
				return r
			}
			series, err := New(cfg).Run()
			if err == nil || !strings.Contains(err.Error(), "monitor stage at tick 5") {
				t.Fatalf("err = %v", err)
			}
			check(t, *folds, 5)
			if len(series[0].Samples) != 5 {
				t.Fatalf("%d samples, want 5", len(series[0].Samples))
			}
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
			cfg.Workers = 4
			plane := newFakePlane()
			plane.failAtTick = 6
			cfg.DataPlane = plane
			return New(cfg).Run()
		}, "fabric stage at tick 6", 6)

		checkSeries(t, fmt.Sprintf("event-error/depth=%d", depth), func(t *testing.T) ([]VictimSeries, error) {
			cfg := testConfig(3, 12, depth)
			cfg.Workers = 4
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
			cfg.Workers = 4
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
	cfg.Workers = 4
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
		cfg.Workers = workers
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

// TestEngineWatchdogDoesNotChangeSeries: arming StageTimeout wraps every
// stage Run in a timed goroutine but must not change what runs — at the
// deep multi-victim, multi-worker shape the series with and without the
// watchdog are byte-identical.
func TestEngineWatchdogDoesNotChangeSeries(t *testing.T) {
	run := func(timeout time.Duration) []VictimSeries {
		t.Helper()
		cfg := testConfig(3, 40, 4)
		cfg.Workers = 4
		cfg.StageTimeout = timeout
		series, err := New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	requireSameSeries(t, "StageTimeout 5s", run(5*time.Second), run(0))
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
