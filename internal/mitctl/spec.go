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
// (experiments.Fig10b) replays its change trace through a Controller and
// reads the waits from that event stream.
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
	"hash/fnv"
	"net/netip"

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
		if s.ShapeRateBps <= 0 {
			return s, fmt.Errorf("mitctl: shape action needs a positive rate")
		}
	default:
		return s, fmt.Errorf("mitctl: action %v is not a mitigation", s.Action)
	}
	if s.Scope == ScopePerPeer && len(s.Peers) == 0 {
		return s, fmt.Errorf("mitctl: per-peer scope lists no peers")
	}
	if s.Scope == ScopeAllPeers {
		s.Peers = nil
	}
	return s, nil
}

// key is the canonical content string the mitigation identity derives
// from. It covers everything that shapes installed state — requester,
// target, match, action, rate, scope — and deliberately excludes TTL
// (a refresh parameter) and the provenance field Origin, so the same
// request re-signaled on any channel, or relayed from any exchange,
// lands on the same mitigation.
func (s Spec) key() string {
	k := fmt.Sprintf("%s|%s|%s|%v|%g|%v", s.Requester, s.Target, s.Match, s.Action, s.ShapeRateBps, s.Scope)
	if s.Scope == ScopePerPeer {
		for _, p := range s.Peers {
			k += "|" + p
		}
	}
	return k
}

// DeriveID returns the content-derived mitigation ID for a spec:
// "mit:<requester>:<target>:<hash>". Channels use it implicitly (a
// Request with an empty ID gets it); callers use it to address a
// mitigation they can restate but did not record the ID of.
func DeriveID(s Spec) string {
	s, _ = s.normalized()
	h := fnv.New32a()
	h.Write([]byte(s.key()))
	return fmt.Sprintf("mit:%s:%s:%08x", s.Requester, s.Target, h.Sum32())
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
