package ixp

import (
	"fmt"
	"net/netip"

	"stellar/internal/engine"
)

// Source produces flow-level offers per tick (attacks, benign services,
// trace replay). It is the engine's source contract under its
// historical ixp name.
type Source = engine.Source

// OfferAppender is an optional Source refinement: sources that can
// append their per-tick offers into a caller-owned buffer, costing no
// per-tick slice allocation in steady state.
type OfferAppender = engine.OfferAppender

// Sample is one tick of a victim port's time series — the measurements
// plotted in Figures 3(c) and 10(c).
type Sample = engine.Sample

// VictimSeries is one victim's result: its per-tick samples and the
// monitor that collected its delivered flows.
type VictimSeries = engine.VictimSeries

// MeanDeliveredBps averages delivered rate over [from, to) ticks.
func MeanDeliveredBps(samples []Sample, from, to int) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Tick >= from && s.Tick < to {
			sum += s.DeliveredBps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanActivePeers averages the peer count over [from, to) ticks.
func MeanActivePeers(samples []Sample, from, to int) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Tick >= from && s.Tick < to {
			sum += float64(s.ActivePeers)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// VictimOwner finds the member owning the address (by registered
// prefix) — the destination port for attack traffic.
func (x *IXP) VictimOwner(addr netip.Addr) (string, error) {
	for name, m := range x.members {
		for _, p := range m.Prefixes {
			if p.Contains(addr) {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("ixp: no member owns %s", addr)
}
