// Package mitctl is the IXP's unified mitigation control plane: one
// declarative, lifecycle-managed API behind every signaling channel the
// paper describes for advanced blackholing as a service (Section 3).
//
// A member states WHAT it wants mitigated as a Spec — target prefix,
// L2-L4 match, action, scope, TTL — and the Controller owns everything
// that happens afterwards:
//
//	Request → Validate → Install → Refresh/Expire → Withdraw
//
// Validation checks IRR prefix ownership; install compiles the spec
// into tagged fabric rules paced through the change queue and applied
// by a network manager under hardware admission control (the per-port
// QoS-policy slots bound each member's rules); the TTL clock is driven
// from the simulation tick loop; and a versioned state store
// (Get/Snapshot/Active) plus an event stream
// (Subscribe) close the request→install→measure loop the paper demands:
// every installed mitigation carries its ID in its fabric rule tags, so
// per-mitigation dropped/shaped byte counters are one Usage call away.
//
// The change queue's token bucket is the exchange's only pacer, and a
// mitigation's own record is the only account of its wait: InstalledAt −
// RequestedAt, also readable off the EventInstalled event. Figure 10(b)
// (`stellar-lab fig10b`) replays its change trace through a Controller
// and reads the waits from that event stream.
//
// The three signaling channels are thin adapters that compile into
// Spec: BGP extended-community signals (CommunityChannel, the paper's
// "IXP:2:123" scheme), RFC 5575 FlowSpec NLRI (SpecsFromFlowSpec), and
// the customer portal (SpecFromPortalRule / RequestFromPortal).
// Equivalent requests produce identical installed state regardless of
// the channel they arrived on, because the mitigation identity is
// derived from the spec's content, never from its transport.
package mitctl

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strconv"

	"stellar/internal/fabric"
)

// Scope selects which traffic sources a mitigation covers.
type Scope uint8

// Scopes.
const (
	// ScopeAllPeers applies the match to traffic from every peer — one
	// rule on the victim's egress port.
	ScopeAllPeers Scope = iota
	// ScopePerPeer restricts the mitigation to the peers listed in
	// Spec.Peers — one rule per peer, each pinned to the peer's source
	// MAC (the L2 criterion of the hardware model, Figure 9).
	ScopePerPeer
)

func (s Scope) String() string {
	if s == ScopePerPeer {
		return "per-peer"
	}
	return "all-peers"
}

// Spec declares one desired mitigation. It is the channel-independent
// form every signaling path compiles into.
type Spec struct {
	// ID names the mitigation. Leave empty to let the controller derive
	// it from the spec's content (DeriveID), which is what makes
	// re-requests idempotent and channels equivalent.
	ID string
	// Requester is the member asking for the mitigation; it must own
	// Target (IRR validation) and is the only member allowed to
	// withdraw it.
	Requester string
	// Target is the destination prefix under attack. It is stamped into
	// the match's DstIP when the match leaves it open.
	Target netip.Prefix
	// Match is the L2-L4 classification pattern beyond the target
	// prefix (protocol, ports, source prefix...).
	Match fabric.Match
	// Action and ShapeRateBps select the drop or shape queue.
	Action       fabric.ActionKind
	ShapeRateBps float64
	// Scope and Peers bound the covered traffic sources.
	Scope Scope
	Peers []string
	// TTL is the mitigation lifetime in seconds; 0 never expires.
	// Re-requesting an identical spec re-arms the clock.
	TTL float64
	// Origin records where the request originated: "" for a request
	// signaled at this exchange, or the name of the exchange a
	// federation gossip link relayed it from. It is provenance
	// metadata only — it never influences the mitigation's
	// identity, so a gossiped re-request of a locally live spec
	// refreshes the local mitigation instead of forking a remote twin.
	Origin string
}

// normalized stamps the target prefix into the match and validates the
// spec's shape.
func (s Spec) normalized() (Spec, error) {
	if s.Requester == "" {
		return s, fmt.Errorf("mitctl: spec has no requester")
	}
	if !s.Target.IsValid() {
		return s, fmt.Errorf("mitctl: spec has no target prefix")
	}
	if !s.Match.DstIP.IsValid() {
		s.Match.DstIP = s.Target.Masked()
	}
	s.Target = s.Target.Masked()
	switch s.Action {
	case fabric.ActionDrop:
		s.ShapeRateBps = 0
	case fabric.ActionShape:
		if !(s.ShapeRateBps > 0) || math.IsInf(s.ShapeRateBps, 1) {
			return s, fmt.Errorf("mitctl: shape action needs a positive finite rate")
		}
	default:
		return s, fmt.Errorf("mitctl: action %v is not a mitigation", s.Action)
	}
	if s.Scope > ScopePerPeer {
		return s, fmt.Errorf("mitctl: scope %d is not a scope", s.Scope)
	}
	if s.Scope == ScopePerPeer && len(s.Peers) == 0 {
		return s, fmt.Errorf("mitctl: per-peer scope lists no peers")
	}
	if s.Scope == ScopeAllPeers {
		s.Peers = nil
	}
	return s, nil
}

// appendKey appends the canonical content key the mitigation identity
// derives from, "<requester>|<target>|<match>|<action>|<rate>|<scope>"
// followed by "|<peer>" per listed peer under per-peer scope, and returns
// the extended buffer. It covers everything that shapes installed state
// — requester, target, match, action, rate, scope — and deliberately
// excludes TTL (a refresh parameter) and the provenance field Origin, so
// the same request re-signaled on any channel, or relayed from any
// exchange, lands on the same mitigation. The rate prints in %g's
// shortest form; normalized admits only finite rates, whose strconv and
// fmt forms agree.
func (s *Spec) appendKey(b []byte) []byte {
	b = append(b, s.Requester...)
	b = append(b, '|')
	b = s.Target.AppendTo(b)
	b = append(b, '|')
	b = s.Match.AppendTo(b)
	b = append(b, '|')
	b = append(b, s.Action.String()...)
	b = append(b, '|')
	b = strconv.AppendFloat(b, s.ShapeRateBps, 'g', -1, 64)
	b = append(b, '|')
	b = append(b, s.Scope.String()...)
	if s.Scope == ScopePerPeer {
		for _, p := range s.Peers {
			b = append(b, '|')
			b = append(b, p...)
		}
	}
	return b
}

// sameContent reports whether two normalized specs have the same
// content: the fields appendKey covers. It agrees with comparing their
// keys except where a name containing '|' makes two keys collide.
func (s *Spec) sameContent(o *Spec) bool {
	return s.Requester == o.Requester && s.Target == o.Target &&
		sameMatch(s.Match, o.Match) && s.Action == o.Action &&
		s.ShapeRateBps == o.ShapeRateBps && s.Scope == o.Scope &&
		(s.Scope != ScopePerPeer || slices.Equal(s.Peers, o.Peers))
}

// sameMatch compares two matches by content: the source MAC by value.
func sameMatch(a, b fabric.Match) bool {
	if (a.SrcMAC == nil) != (b.SrcMAC == nil) || a.SrcMAC != nil && *a.SrcMAC != *b.SrcMAC {
		return false
	}
	a.SrcMAC, b.SrcMAC = nil, nil
	return a == b
}

// DeriveID returns the content-derived mitigation ID for a spec:
// "mit:<requester>:<target>:<hash>", the hash being the 32-bit FNV-1a of
// the normalized spec's content key (appendKey). Channels use it
// implicitly (a Request with an empty ID gets it); callers use it to
// address a mitigation they can restate but did not record the ID of.
// Its one allocation is the returned string.
func DeriveID(s Spec) string {
	s, _ = s.normalized()
	var buf [256]byte
	key := s.appendKey(buf[:0])
	h := uint32(2166136261) // FNV-1a, as hash/fnv's New32a
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	b := append(key[:0], "mit:"...)
	b = append(b, s.Requester...)
	b = append(b, ':')
	b = s.Target.AppendTo(b)
	b = append(b, ':')
	const hexDigit = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigit[h>>shift&0xF])
	}
	return string(b)
}

// ruleIDs returns the fabric rule tags a spec installs: the mitigation
// ID itself for all-peers scope, or one "<id>#<peer>" tag per listed
// peer. The tag is what lets per-rule telemetry counters roll up into
// per-mitigation dropped/shaped bytes (Controller.Usage).
func (s Spec) ruleIDs() []string {
	if s.Scope == ScopeAllPeers {
		return []string{s.ID}
	}
	ids := make([]string, len(s.Peers))
	for i, p := range s.Peers {
		ids[i] = s.ID + "#" + p
	}
	return ids
}
