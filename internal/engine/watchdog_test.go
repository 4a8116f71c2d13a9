package engine

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// wrapStage decorates an inner stage with test hooks, standing in for
// Config.StageWrap users like the fault injector.
type wrapStage struct {
	Stage
	onPrepare func(name string, tick int)
	onRun     func(name string, tick int)
}

func (w *wrapStage) Prepare(tick int) {
	if w.onPrepare != nil {
		w.onPrepare(w.Stage.Name(), tick)
	}
	w.Stage.Prepare(tick)
}

func (w *wrapStage) Run(ctx *Ctx, in, out *Batch) error {
	if w.onRun != nil {
		w.onRun(w.Stage.Name(), ctx.Tick)
	}
	return w.Stage.Run(ctx, in, out)
}

// TestStageWrapAppliesToEveryStage pins the decoration seam: StageWrap
// sees all five pipeline stages and its Run hook observes every tick.
func TestStageWrapAppliesToEveryStage(t *testing.T) {
	const ticks = 4
	var mu sync.Mutex
	wrapped := map[string]bool{}
	runs := map[string]int{}
	cfg := testConfig(1, ticks, 2)
	cfg.StageWrap = func(s Stage) Stage {
		mu.Lock()
		wrapped[s.Name()] = true
		mu.Unlock()
		return &wrapStage{Stage: s, onRun: func(name string, tick int) {
			mu.Lock()
			runs[name]++
			mu.Unlock()
		}}
	}
	if _, err := New(cfg).Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"traffic", "control", "fabric", "monitor", "report"} {
		if !wrapped[name] {
			t.Errorf("stage %q never offered to StageWrap (saw %v)", name, wrapped)
		}
		if runs[name] != ticks {
			t.Errorf("stage %q ran %d times, want %d", name, runs[name], ticks)
		}
	}
}

// TestWatchdogIsolatesRunPanic: a stage panicking mid-run surfaces as
// that tick's error, with the series truncated to the folded ticks —
// the run dies loudly but the process does not.
func TestWatchdogIsolatesRunPanic(t *testing.T) {
	cfg := testConfig(1, 10, 2)
	cfg.StageWrap = func(s Stage) Stage {
		if s.Name() != "control" {
			return s
		}
		return &wrapStage{Stage: s, onRun: func(_ string, tick int) {
			if tick == 5 {
				panic("deliberate control panic")
			}
		}}
	}
	series, err := New(cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") ||
		!strings.Contains(err.Error(), "deliberate control panic") {
		t.Fatalf("err = %v, want isolated panic", err)
	}
	if len(series[0].Samples) >= 10 {
		t.Fatalf("series not truncated: %d samples", len(series[0].Samples))
	}
}

// TestWatchdogIsolatesPreparePanic: Prepare returns nothing, so a panic
// there is carried to the stage's next Run and surfaces as its error.
func TestWatchdogIsolatesPreparePanic(t *testing.T) {
	cfg := testConfig(1, 10, 2)
	cfg.StageWrap = func(s Stage) Stage {
		if s.Name() != "traffic" {
			return s
		}
		return &wrapStage{Stage: s, onPrepare: func(_ string, tick int) {
			if tick == 3 {
				panic("deliberate prepare panic")
			}
		}}
	}
	_, err := New(cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "panicked in Prepare") {
		t.Fatalf("err = %v, want Prepare panic surfaced", err)
	}
}

// TestWatchdogDetectsStalledStage: a stage that stops making progress
// past StageTimeout turns into a tick error naming the stage, instead
// of hanging the run forever, and the samples below the stall tick
// survive. The watchdog composes with the fold side: the deep
// multi-victim, multi-worker case stalls the monitor stage on the fold
// goroutine.
func TestWatchdogDetectsStalledStage(t *testing.T) {
	for _, tc := range []struct {
		stage                   string
		victims, depth, workers int
	}{
		{stage: "fabric", victims: 1, depth: 2},
		{stage: "monitor", victims: 3, depth: 4, workers: 4},
	} {
		tc := tc
		t.Run(tc.stage, func(t *testing.T) {
			const stallTick = 2
			release := make(chan struct{})
			defer close(release) // let the abandoned goroutine finish
			cfg := testConfig(tc.victims, 10, tc.depth)
			cfg.Workers = tc.workers
			cfg.StageTimeout = 50 * time.Millisecond
			cfg.StageWrap = func(s Stage) Stage {
				if s.Name() != tc.stage {
					return s
				}
				return &wrapStage{Stage: s, onRun: func(_ string, tick int) {
					if tick == stallTick {
						<-release
					}
				}}
			}
			type result struct {
				series []VictimSeries
				err    error
			}
			done := make(chan result, 1)
			go func() {
				series, err := New(cfg).Run()
				done <- result{series, err}
			}()
			select {
			case r := <-done:
				if r.err == nil || !strings.Contains(r.err.Error(), tc.stage+" stalled") {
					t.Fatalf("err = %v, want %s stall", r.err, tc.stage)
				}
				for v := range r.series {
					if len(r.series[v].Samples) != stallTick {
						t.Fatalf("victim %d: %d samples, want the %d below the stall tick",
							v, len(r.series[v].Samples), stallTick)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("watchdog never fired; run hung")
			}
		})
	}
}

// TestWatchdogNoTimeoutNoGoroutines: with StageTimeout unset the guard
// must run stages inline — a full run may not leave watchdog goroutines
// behind, and with a timeout set the per-tick goroutines must drain
// when stages are healthy.
func TestWatchdogNoTimeoutNoGoroutines(t *testing.T) {
	for _, timeout := range []time.Duration{0, 5 * time.Second} {
		before := runtime.NumGoroutine()
		cfg := testConfig(2, 20, 2)
		cfg.StageTimeout = timeout
		if _, err := New(cfg).Run(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("timeout %v: %d goroutines before run, %d after", timeout, before, after)
		}
	}
}
