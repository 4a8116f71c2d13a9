package ixp

import (
	"fmt"
	"net/netip"

	"stellar/internal/engine"
)

// MeanDeliveredBps averages delivered rate over [from, to) ticks.
func MeanDeliveredBps(samples []engine.Sample, from, to int) float64 {
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
func MeanActivePeers(samples []engine.Sample, from, to int) float64 {
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
	for name, m := range x.reg.Load().members {
		for _, p := range m.Prefixes {
			if p.Contains(addr) {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("ixp: no member owns %s", addr)
}
