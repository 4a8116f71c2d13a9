package member

import (
	"fmt"
	"net/netip"

	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// Member is one IXP member AS.
type Member struct {
	Name  string
	ASN   uint32
	MAC   netpkt.MAC
	BGPID netip.Addr
	// PortCapacityBps is the member's IXP port speed.
	PortCapacityBps float64
	// Prefixes the member originates (registered in the IRR).
	Prefixes []netip.Prefix

	// AcceptsMoreSpecifics: the member's import filters accept prefixes
	// longer than /24 (required to even see a /32 RTBH announcement).
	AcceptsMoreSpecifics bool
	// ActsOnBlackhole: the member installs a null route for routes
	// carrying the BLACKHOLE community.
	ActsOnBlackhole bool
}

// HonorsRTBH reports whether the member would stop sending traffic to a
// blackholed /32: it must both accept the more-specific announcement and
// act on the community.
func (m *Member) HonorsRTBH() bool {
	return m.AcceptsMoreSpecifics && m.ActsOnBlackhole
}

// PopulationConfig parameterizes a synthetic member population.
type PopulationConfig struct {
	// N is the number of members (the paper's L-IXP has >800; the
	// controlled experiment peers with >650).
	N int
	// HonoringFraction is the fraction of members that honor RTBH
	// signals (~0.3 at the paper's IXP: almost 70% do not).
	HonoringFraction float64
	// PortCapacityBps per member; the experimental AS uses 10 Gbps.
	PortCapacityBps float64
	// Seed drives the deterministic assignment of behaviours.
	Seed uint64
}

// MakePopulation fabricates a member population with deterministic
// identities: ASNs 64512+i, MACs 02:20:..., BGP IDs 10.0.x.y, one /24
// per member out of 100.64.0.0/10 (carrier space used as synthetic
// public space).
func MakePopulation(cfg PopulationConfig) []*Member {
	rng := stats.NewRand(cfg.Seed)
	members := make([]*Member, cfg.N)
	perm := rng.Perm(cfg.N)
	honoring := int(float64(cfg.N)*cfg.HonoringFraction + 0.5)
	honors := make([]bool, cfg.N)
	for i := 0; i < honoring && i < cfg.N; i++ {
		honors[perm[i]] = true
	}
	for i := range members {
		var mac netpkt.MAC
		mac[0], mac[1] = 0x02, 0x20
		mac[2] = byte(i >> 24)
		mac[3] = byte(i >> 16)
		mac[4] = byte(i >> 8)
		mac[5] = byte(i)
		// One unique /24 per member out of 100.64.0.0/10 (up to 16384
		// members before the space wraps).
		prefix := netip.PrefixFrom(
			netip.AddrFrom4([4]byte{100, byte(64 + i/256), byte(i % 256), 0}), 24)
		members[i] = &Member{
			Name:                 fmt.Sprintf("AS%d", 64512+i),
			ASN:                  uint32(64512 + i),
			MAC:                  mac,
			BGPID:                netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			PortCapacityBps:      cfg.PortCapacityBps,
			Prefixes:             []netip.Prefix{prefix},
			AcceptsMoreSpecifics: honors[i],
			ActsOnBlackhole:      honors[i],
		}
	}
	return members
}
