package routeserver

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// LookingGlass is the member-facing debugging interface the paper notes
// route-server users rely on (Section 4.3): textual queries over the
// route server's RIB, showing every path for a prefix with its
// attributes and blackholing status. The mitigations and install errors
// a member's requests produced are the controller's to render
// (mitctl.Controller.GlassMitigations and GlassErrors).

// GlassEntry is one looking-glass result row.
type GlassEntry struct {
	Prefix    netip.Prefix
	Peer      string
	PeerAS    uint32
	Best      bool
	Blackhole bool
	AdvBH     bool
	NextHop   netip.Addr
	ASPath    string
	Comms     []string
}

// Glass queries every path for prefix, best first.
func (rs *RouteServer) Glass(prefix netip.Prefix) []GlassEntry {
	paths := rs.table.Lookup(prefix)
	out := make([]GlassEntry, 0, len(paths))
	for i, p := range paths {
		e := GlassEntry{
			Prefix:    p.Key.Prefix,
			Peer:      p.Key.Peer,
			PeerAS:    p.PeerAS,
			Best:      i == 0,
			Blackhole: rs.IsBlackhole(&p.Attrs),
			AdvBH:     HasAdvancedBlackholeSignal(&p.Attrs),
			NextHop:   p.Attrs.NextHop,
		}
		var hops []string
		for _, seg := range p.Attrs.ASPath {
			for _, as := range seg.ASNs {
				hops = append(hops, fmt.Sprintf("%d", as))
			}
		}
		e.ASPath = strings.Join(hops, " ")
		for _, c := range p.Attrs.Communities {
			e.Comms = append(e.Comms, c.String())
		}
		sort.Strings(e.Comms)
		out = append(out, e)
	}
	return out
}

// GlassDump renders the looking-glass view of a prefix (or, for an
// invalid prefix, the whole table summary).
func (rs *RouteServer) GlassDump(prefix netip.Prefix) string {
	var b strings.Builder
	if !prefix.IsValid() {
		prefixes := rs.table.Prefixes()
		fmt.Fprintf(&b, "route server AS%d: %d prefixes, %d paths, %d peers\n",
			rs.cfg.ASN, len(prefixes), rs.table.Len(), len(rs.Peers()))
		for _, p := range prefixes {
			fmt.Fprintf(&b, "  %s (%d paths)\n", p, len(rs.table.Lookup(p)))
		}
		return b.String()
	}
	entries := rs.Glass(prefix)
	if len(entries) == 0 {
		fmt.Fprintf(&b, "%s: no paths\n", prefix)
		return b.String()
	}
	for _, e := range entries {
		marker := " "
		if e.Best {
			marker = "*"
		}
		flags := ""
		if e.Blackhole {
			flags += " [blackhole]"
		}
		if e.AdvBH {
			flags += " [advanced-blackholing]"
		}
		fmt.Fprintf(&b, "%s %s via %s (AS%d) next-hop %s as-path [%s] communities %v%s\n",
			marker, e.Prefix, e.Peer, e.PeerAS, e.NextHop, e.ASPath, e.Comms, flags)
	}
	return b.String()
}
