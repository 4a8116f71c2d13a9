package ixp

import (
	"fmt"
	"net/netip"
)

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
