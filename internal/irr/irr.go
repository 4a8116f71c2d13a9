package irr

import (
	"fmt"
	"net/netip"
	"sync"
)

// Registry is an IRR database mapping origin ASes to the prefixes they
// registered (route/route6 objects). Registration covers all more-specific
// prefixes: registering 100.10.10.0/24 authorizes announcing
// 100.10.10.10/32, which is what lets members send /32 blackholing
// announcements for prefixes they own (Section 2.2, footnote 3).
type Registry struct {
	mu     sync.RWMutex
	routes map[uint32][]netip.Prefix
}

// NewRegistry returns an empty IRR database.
func NewRegistry() *Registry {
	return &Registry{routes: make(map[uint32][]netip.Prefix)}
}

// Register records that asn may originate prefix (and any more-specific
// prefix of it).
func (r *Registry) Register(asn uint32, prefix netip.Prefix) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes[asn] = append(r.routes[asn], prefix.Masked())
}

// Authorized reports whether asn registered prefix or a covering
// less-specific.
func (r *Registry) Authorized(asn uint32, prefix netip.Prefix) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, reg := range r.routes[asn] {
		if reg.Bits() <= prefix.Bits() && reg.Contains(prefix.Addr()) {
			return true
		}
	}
	return false
}

// Bogons is a list of prefixes that must never appear in the DFZ
// (RFC 1918, documentation ranges, etc.). An announcement inside a bogon
// range is rejected.
type Bogons struct {
	prefixes []netip.Prefix
}

// DefaultBogons returns the standard IPv4/IPv6 bogon list. The
// documentation ranges used by tests and examples (192.0.2.0/24 etc.)
// are deliberately NOT included so simulations can use them as public
// space; production deployments would add them.
func DefaultBogons() *Bogons {
	b := &Bogons{}
	for _, s := range []string{
		"0.0.0.0/8", "10.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16",
		"172.16.0.0/12", "192.168.0.0/16", "224.0.0.0/4", "240.0.0.0/4",
		"::/128", "::1/128", "fc00::/7", "fe80::/10", "ff00::/8",
	} {
		b.prefixes = append(b.prefixes, netip.MustParsePrefix(s))
	}
	return b
}

// Contains reports whether p falls inside any bogon range.
func (b *Bogons) Contains(p netip.Prefix) bool {
	for _, bogon := range b.prefixes {
		if bogon.Bits() <= p.Bits() && bogon.Contains(p.Addr()) {
			return true
		}
	}
	return false
}

// Policy bundles the two hygiene databases into the single import check
// the route server applies (Figure 6: "IXP Policy / Route Filtering").
type Policy struct {
	IRR    *Registry
	Bogons *Bogons
}

// NewPolicy returns a policy with an empty IRR and default bogons.
func NewPolicy() *Policy {
	return &Policy{IRR: NewRegistry(), Bogons: DefaultBogons()}
}

// Verdict describes an import-policy decision.
type Verdict struct {
	Accept bool
	Reason string
}

// Check evaluates an announcement of prefix with the given origin AS.
// The rules mirror Section 4.3: reject bogons and IRR-unauthorized
// prefixes.
func (p *Policy) Check(prefix netip.Prefix, originAS uint32) Verdict {
	if p.Bogons != nil && p.Bogons.Contains(prefix) {
		return Verdict{Accept: false, Reason: "bogon prefix"}
	}
	if p.IRR != nil && !p.IRR.Authorized(originAS, prefix) {
		return Verdict{Accept: false, Reason: fmt.Sprintf("prefix not registered in IRR for AS%d", originAS)}
	}
	return Verdict{Accept: true, Reason: "ok"}
}
