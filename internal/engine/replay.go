package engine

import (
	"errors"
	"fmt"
	"io"
	"time"

	"stellar/internal/bgppipe"
	"stellar/internal/fabric"
)

// ReplayConfig parameterizes a control-plane replay driver: how a
// capture's timestamps map onto the engine tick clock, and what to do
// with each replayed record.
type ReplayConfig struct {
	// StartTick is the engine tick the capture's first record lands on.
	StartTick int
	// TickSeconds is the engine tick length (must match the run's
	// Config). Required.
	TickSeconds float64
	// Speed compresses capture time: Speed capture-seconds play per
	// simulated second (default 1; 3600 replays an hour of routing
	// churn inside one simulated minute... per 3600/60).
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

// ReplayDriver drives a run from a captured BGP stream: the base
// driver keeps supplying the data-plane workload (victims and their
// per-tick offers), while the capture's records are resampled onto the
// tick clock and applied as control-plane events — real routing churn
// and synthetic attack traffic on one engine timeline.
//
// Built by NewMRTDriver / NewRISDriver / NewReplayDriver; the whole
// stream is scheduled up front (the engine reads a driver's events
// once), so construction consumes the source.
type ReplayDriver struct {
	base   Driver
	events []Event

	records             int
	firstTick, lastTick int
}

// NewReplayDriver schedules every record of src onto the tick clock.
// base supplies the victims and data-plane offers (engine.Run requires
// at least one victim); the capture's records become the driver's
// events.
func NewReplayDriver(base Driver, src bgppipe.RecordSource, cfg ReplayConfig) (*ReplayDriver, error) {
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
	d := &ReplayDriver{base: base, firstTick: -1}

	// Records grouped per tick: one event applies the tick's whole
	// batch, keeping the event list proportional to distinct ticks.
	var (
		t0        time.Time
		batch     []bgppipe.Record
		batchTick int
	)
	apply := cfg.Apply
	flush := func() {
		if len(batch) == 0 {
			return
		}
		recs := batch
		tick := batchTick
		d.events = append(d.events, Event{
			Tick: tick,
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
		if d.records == 0 {
			t0 = rec.Time
		}
		d.records++
		tick := cfg.StartTick
		if elapsed := rec.Time.Sub(t0).Seconds(); elapsed > 0 {
			tick += int(elapsed / (speed * cfg.TickSeconds))
		}
		if tick < cfg.StartTick {
			tick = cfg.StartTick // out-of-order or pre-epoch timestamps
		}
		if cfg.MaxTick > 0 && tick > cfg.MaxTick {
			tick = cfg.MaxTick
		}
		if d.firstTick < 0 {
			d.firstTick = tick
		}
		if tick != batchTick {
			flush()
			batchTick = tick
		}
		d.lastTick = tick
		batch = append(batch, rec)
	}
	flush()
	return d, nil
}

// NewMRTDriver replays an MRT dump (RFC 6396) on top of base's
// data-plane workload.
func NewMRTDriver(base Driver, r io.Reader, cfg ReplayConfig) (*ReplayDriver, error) {
	return NewReplayDriver(base, bgppipe.NewMRTScanner(r), cfg)
}

// NewRISDriver replays a RIS-live JSON capture on top of base's
// data-plane workload.
func NewRISDriver(base Driver, r io.Reader, cfg ReplayConfig) (*ReplayDriver, error) {
	return NewReplayDriver(base, bgppipe.NewRISScanner(r), cfg)
}

// Records reports how many capture records were scheduled.
func (d *ReplayDriver) Records() int { return d.records }

// TickSpan reports the first and last tick carrying replayed records
// (-1, -1 for an empty capture).
func (d *ReplayDriver) TickSpan() (first, last int) {
	if d.records == 0 {
		return -1, -1
	}
	return d.firstTick, d.lastTick
}

// Victims implements Driver.
func (d *ReplayDriver) Victims() []VictimSpec {
	if d.base == nil {
		return nil
	}
	return d.base.Victims()
}

// AppendOffers implements Driver.
func (d *ReplayDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	if d.base == nil {
		return dst
	}
	return d.base.AppendOffers(v, dst, tick, dt)
}

// SerialGen implements SerialGenerator, deferring to the base driver.
func (d *ReplayDriver) SerialGen() bool {
	if s, ok := d.base.(SerialGenerator); ok {
		return s.SerialGen()
	}
	return false
}

// Events implements Eventful: the base driver's own events followed by
// the replay schedule (the engine orders by tick, stably).
func (d *ReplayDriver) Events() []Event {
	var evs []Event
	if e, ok := d.base.(Eventful); ok {
		evs = append(evs, e.Events()...)
	}
	return append(evs, d.events...)
}
