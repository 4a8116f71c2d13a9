package engine

import (
	"errors"
	"fmt"
	"io"
	"time"

	"stellar/internal/bgppipe"
)

// ReplayConfig parameterizes ReplayEvents: how a capture's timestamps
// map onto the engine tick clock, and what to do with each replayed
// record.
type ReplayConfig struct {
	// StartTick is the engine tick the capture's first record lands on.
	StartTick int
	// TickSeconds is the engine tick length (must match the run's
	// Config). Required.
	TickSeconds float64
	// Speed compresses capture time: Speed capture-seconds play per
	// simulated second (default 1; 3600 replays an hour of routing
	// churn in one simulated second).
	Speed float64
	// MaxTick clamps the schedule like traffic.Trace clamps its rate
	// series: records mapping past MaxTick land on MaxTick instead of
	// being dropped, so a capture longer than the run still applies in
	// full. 0 leaves the schedule unclamped.
	MaxTick int
	// Apply consumes one record on the control spine at its scheduled
	// tick (typically a closure over ixp.IXP.HandleWireUpdate). Required.
	Apply func(rec bgppipe.Record) error
}

// ReplayEvents schedules every record of a captured BGP stream — an MRT
// dump (bgppipe.NewMRTScanner) or a RIS-live capture
// (bgppipe.NewRISScanner) — onto the tick clock, so real routing churn
// and synthetic attack traffic share one engine timeline: pass the
// result in Config.Events. Records are grouped per tick, one event
// applying the tick's records in stream order, which keeps the list
// proportional to distinct ticks. The whole stream is read up front.
func ReplayEvents(src bgppipe.RecordSource, cfg ReplayConfig) ([]Event, error) {
	if cfg.Apply == nil {
		return nil, errors.New("engine: ReplayConfig.Apply is nil")
	}
	if cfg.TickSeconds <= 0 {
		return nil, errors.New("engine: ReplayConfig.TickSeconds must be positive")
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
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
			tick += int(elapsed / (speed * cfg.TickSeconds))
		}
		if cfg.MaxTick > 0 && tick > cfg.MaxTick {
			tick = cfg.MaxTick
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
