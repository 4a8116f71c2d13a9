package engine

import (
	"errors"
	"fmt"
	"io"
	"time"

	"stellar/internal/bgppipe"
)

// ReplayConfig parameterizes ReplayEvents: where a capture starts on
// the engine tick clock, and what to do with each replayed record.
// Capture time plays at simulated speed: a record s seconds after the
// first lands int(s/TickSeconds) ticks after StartTick, and one that
// lands past the run's last tick never fires.
type ReplayConfig struct {
	// StartTick is the engine tick the capture's first record lands on.
	StartTick int
	// TickSeconds is the engine tick length (must match the run's
	// Config). Required.
	TickSeconds float64
	// Apply consumes one record on the control spine at its scheduled
	// tick (typically a closure over ixp.IXP.HandleWireUpdate). Required.
	Apply func(rec bgppipe.Record) error
}

// ReplayEvents schedules every record of a captured BGP stream — a
// BGP4MP dump read by bgppipe.NewMRTScanner, possibly filtered by
// faults.(*Injector).FilterSource — onto the tick clock, so real
// routing churn and synthetic attack traffic share one engine
// timeline: pass the result in Config.Events. Records are grouped per
// tick, one event applying the tick's records in stream order, which
// keeps the list proportional to distinct ticks. The whole stream is
// read up front.
func ReplayEvents(src bgppipe.RecordSource, cfg ReplayConfig) ([]Event, error) {
	if cfg.Apply == nil {
		return nil, errors.New("engine: ReplayConfig.Apply is nil")
	}
	if cfg.TickSeconds <= 0 {
		return nil, errors.New("engine: ReplayConfig.TickSeconds must be positive")
	}
	var (
		events    []Event
		t0        time.Time
		first     = true
		batch     []bgppipe.Record
		batchTick int
	)
	apply := cfg.Apply
	flush := func() {
		if len(batch) == 0 {
			return
		}
		recs := batch
		events = append(events, Event{
			Tick: batchTick,
			Name: fmt.Sprintf("replay[%d]", len(recs)),
			Do: func() error {
				for _, rec := range recs {
					if err := apply(rec); err != nil {
						return err
					}
				}
				return nil
			},
		})
		batch = nil
	}
	for {
		rec, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		if first {
			t0, first = rec.Time, false
		}
		tick := cfg.StartTick
		if elapsed := rec.Time.Sub(t0).Seconds(); elapsed > 0 {
			tick += int(elapsed / cfg.TickSeconds)
		}
		if tick != batchTick {
			flush()
			batchTick = tick
		}
		batch = append(batch, rec)
	}
	flush()
	return events, nil
}
