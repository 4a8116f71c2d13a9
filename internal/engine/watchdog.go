package engine

import (
	"fmt"
	"time"
)

// guardStage is the engine's stage watchdog: it isolates a panicking
// stage into a tick error (instead of crashing the run) and, when a
// timeout is set, detects a stalled stage — a Run that stops making
// progress hangs the whole pipeline, so the watchdog turns it into a
// tick error the engine aborts on. A timed-out stage's goroutine is
// abandoned (there is no way to cancel arbitrary stage code); the run
// is over at that point, so nothing reuses its batch.
type guardStage struct {
	inner   Stage
	timeout time.Duration
	// pending carries a panic from Prepare/Fold (which return nothing)
	// to the next Run, where it surfaces as the tick's error.
	pending error
}

// guard wraps every stage with the watchdog. wrap (Config.StageWrap)
// applies first, so user decorations run inside the guard.
func guard(stages []Stage, wrap func(Stage) Stage, timeout time.Duration) []Stage {
	out := make([]Stage, len(stages))
	for i, s := range stages {
		if wrap != nil {
			s = wrap(s)
		}
		out[i] = &guardStage{inner: s, timeout: timeout}
	}
	return out
}

func (g *guardStage) Name() string { return g.inner.Name() }

func (g *guardStage) Prepare(tick int) {
	defer g.recoverInto("Prepare", tick)
	g.inner.Prepare(tick)
}

func (g *guardStage) Fold(tick int) {
	defer g.recoverInto("Fold", tick)
	g.inner.Fold(tick)
}

func (g *guardStage) recoverInto(phase string, tick int) {
	if r := recover(); r != nil && g.pending == nil {
		g.pending = fmt.Errorf("%s panicked in %s at tick %d: %v", g.inner.Name(), phase, tick, r)
	}
}

func (g *guardStage) Run(ctx *Ctx, in, out *Batch) error {
	if err := g.pending; err != nil {
		g.pending = nil
		return err
	}
	if g.timeout <= 0 {
		return g.run(ctx, in, out)
	}
	done := make(chan error, 1)
	go func() {
		done <- g.run(ctx, in, out)
	}()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return fmt.Errorf("%s stalled: no progress within %v (goroutine abandoned)", g.inner.Name(), g.timeout)
	}
}

// run executes the inner stage with panic isolation.
func (g *guardStage) run(ctx *Ctx, in, out *Batch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", g.inner.Name(), r)
		}
	}()
	return g.inner.Run(ctx, in, out)
}
