package engine

import "stellar/internal/fabric"

// SourcesDriver is the synthetic-attack driver: per-victim Source lists,
// the workload shape of the figure experiments. When one Source
// instance feeds several victims the driver generates serially (sources
// keep per-instance caches), otherwise victims fan across the worker
// pool.
type SourcesDriver struct {
	specs   []VictimSpec
	sources [][]Source
	shared  bool
}

// NewSourcesDriver builds the driver; sources[i] feeds specs[i].
// Missing trailing source lists are treated as empty (a victim that
// only receives cross-traffic).
func NewSourcesDriver(specs []VictimSpec, sources [][]Source) *SourcesDriver {
	d := &SourcesDriver{specs: specs, sources: sources}
	seen := make(map[Source]bool)
	for _, list := range sources {
		for _, src := range list {
			if seen[src] {
				d.shared = true
			}
			seen[src] = true
		}
	}
	return d
}

// Victims implements Driver.
func (d *SourcesDriver) Victims() []VictimSpec { return d.specs }

// SerialGen implements SerialGenerator: true when a Source instance is
// shared across victims.
func (d *SourcesDriver) SerialGen() bool { return d.shared }

// AppendOffers implements Driver.
func (d *SourcesDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	if v >= len(d.sources) {
		return dst
	}
	for _, src := range d.sources[v] {
		if ap, ok := src.(OfferAppender); ok {
			dst = ap.AppendOffers(dst, tick, dt)
		} else {
			dst = append(dst, src.Offers(tick, dt)...)
		}
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

// Offers implements Source.
func (p *Pulsed) Offers(tick int, dtSeconds float64) []fabric.Offer {
	return p.AppendOffers(nil, tick, dtSeconds)
}

// AppendOffers implements OfferAppender.
func (p *Pulsed) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	if !p.ActiveAt(tick) {
		return dst
	}
	if ap, ok := p.Src.(OfferAppender); ok {
		return ap.AppendOffers(dst, tick, dtSeconds)
	}
	return append(dst, p.Src.Offers(tick, dtSeconds)...)
}
