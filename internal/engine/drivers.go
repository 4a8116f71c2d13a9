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
// period, counted from StartTick.
type Pulsed struct {
	Src       Source
	OnTicks   int
	OffTicks  int
	StartTick int
}

// ActiveAt reports whether the pulse train is in an on-window at tick.
func (p *Pulsed) ActiveAt(tick int) bool {
	if tick < p.StartTick || p.OnTicks <= 0 {
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

// CarpetDriver is the carpet-bombing driver: the attack rotates across
// the victims' prefixes every RotateTicks while per-victim background
// sources stay on — the evasion pattern that defeats single-/32 RTBH
// because no one destination ever carries the full volume long enough.
type CarpetDriver struct {
	specs []VictimSpec
	// Attacks[v] is victim v's attack workload, emitted only while the
	// rotation points at v.
	Attacks []Source
	// Background[v] (optional) stays on every tick.
	Background [][]Source
	// RotateTicks is the dwell time per victim (<=0: 1).
	RotateTicks int
	// StartTick/EndTick bound the whole carpet (end 0: never).
	StartTick, EndTick int
}

// NewCarpetDriver builds a carpet-bombing run over the victims;
// attacks[v] targets specs[v].
func NewCarpetDriver(specs []VictimSpec, attacks []Source, rotateTicks int) *CarpetDriver {
	return &CarpetDriver{specs: specs, Attacks: attacks, RotateTicks: rotateTicks}
}

// Victims implements Driver.
func (d *CarpetDriver) Victims() []VictimSpec { return d.specs }

// CurrentVictim returns the rotation's victim index at tick, or -1
// outside the attack window.
func (d *CarpetDriver) CurrentVictim(tick int) int {
	if tick < d.StartTick || (d.EndTick > 0 && tick >= d.EndTick) || len(d.specs) == 0 {
		return -1
	}
	rot := d.RotateTicks
	if rot <= 0 {
		rot = 1
	}
	return ((tick - d.StartTick) / rot) % len(d.specs)
}

// AppendOffers implements Driver.
func (d *CarpetDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	if v < len(d.Background) {
		for _, src := range d.Background[v] {
			if ap, ok := src.(OfferAppender); ok {
				dst = ap.AppendOffers(dst, tick, dt)
			} else {
				dst = append(dst, src.Offers(tick, dt)...)
			}
		}
	}
	if d.CurrentVictim(tick) == v && v < len(d.Attacks) && d.Attacks[v] != nil {
		if ap, ok := d.Attacks[v].(OfferAppender); ok {
			dst = ap.AppendOffers(dst, tick, dt)
		} else {
			dst = append(dst, d.Attacks[v].Offers(tick, dt)...)
		}
	}
	return dst
}
