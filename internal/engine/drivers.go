package engine

import "stellar/internal/fabric"

// SourcesDriver is the synthetic-attack driver: per-victim Source lists,
// the workload shape of the figure experiments. Victims fan across the
// worker pool, and one Source instance may feed several of them.
type SourcesDriver struct {
	specs   []VictimSpec
	sources [][]Source
}

// NewSourcesDriver builds the driver; sources[i] feeds specs[i].
// Missing trailing source lists are treated as empty (a victim that
// only receives cross-traffic).
func NewSourcesDriver(specs []VictimSpec, sources [][]Source) *SourcesDriver {
	return &SourcesDriver{specs: specs, sources: sources}
}

// Victims implements Driver.
func (d *SourcesDriver) Victims() []VictimSpec { return d.specs }

// AppendOffers implements Driver.
func (d *SourcesDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	if v >= len(d.sources) {
		return dst
	}
	for _, src := range d.sources[v] {
		dst = src.AppendOffers(dst, tick, dt)
	}
	return dst
}

// Pulsed gates a source into an on/off pulse train — the burst-pause
// pattern of modern booter attacks that defeats reactive thresholds.
// The source emits during the first OnTicks of every (OnTicks+OffTicks)
// period, counted from StartTick, until EndTick (0: never).
type Pulsed struct {
	Src       Source
	OnTicks   int
	OffTicks  int
	StartTick int
	EndTick   int
}

// ActiveAt reports whether the pulse train is in an on-window at tick.
func (p *Pulsed) ActiveAt(tick int) bool {
	if tick < p.StartTick || (p.EndTick > 0 && tick >= p.EndTick) || p.OnTicks <= 0 {
		return false
	}
	period := p.OnTicks + p.OffTicks
	if period <= 0 {
		return true
	}
	return (tick-p.StartTick)%period < p.OnTicks
}

// AppendOffers implements Source.
func (p *Pulsed) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	if !p.ActiveAt(tick) {
		return dst
	}
	return p.Src.AppendOffers(dst, tick, dtSeconds)
}
