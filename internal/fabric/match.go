// Package fabric emulates the IXP's layer-2 switching platform and its
// egress QoS policy engine (Section 4.5, Figure 8): per-member ports,
// MAC-based forwarding, and per-port classification of traffic into
// forward, shape and drop queues with token-bucket shaping and per-rule
// telemetry counters.
//
// The simulator is flow-level and discrete-time: traffic is offered to
// ports as (flow header, bytes, packets) aggregates per tick, which is
// what lets experiments replay multi-gigabit attacks faithfully without
// materializing packets. There is one way through a port: Port.Egress,
// one tick of classify, then the forward, shape or drop queue, with each
// delivered flow streamed into the caller's FlowVisitor.
//
// Classification is line-rate in spirit: rule installs compile the
// port's rule set into an immutable lookup structure (exact-match port
// tables, per-field prefix tries, a source-MAC index and a short
// residual list — see classifier.go) published through an atomic
// pointer, so the data path runs lock-free with first-match-priority
// semantics while rule management stays serialized. Fabric.Tick fans
// the member ports' egress engines across the caller's Runner (a shared
// Pool; nil runs them inline); results are merged per port and remain
// deterministic.
package fabric

import (
	"fmt"
	"net/netip"
	"strings"

	"stellar/internal/netpkt"
)

// AnyPort is the wildcard value for Match port fields. Port 0 is a real,
// attack-relevant port (the top source port in blackholed traffic,
// Figure 3a), so the wildcard must be out of band.
const AnyPort int32 = -1

// Match is an L2-L4 classification pattern, the match half of a
// blackholing rule. Zero values mean "any" except for the port fields,
// which use AnyPort (-1).
type Match struct {
	// SrcMAC, when non-nil, matches frames from one member router —
	// the L2 criterion used for RTBH policy control.
	SrcMAC *netpkt.MAC
	// Proto matches the transport protocol; 0 means any.
	Proto netpkt.IPProto
	// SrcIP / DstIP match when the packet address is inside the prefix;
	// an invalid (zero) prefix means any.
	SrcIP netip.Prefix
	DstIP netip.Prefix
	// SrcPort / DstPort match transport ports; AnyPort means any.
	SrcPort int32
	DstPort int32
}

// MatchAll returns a match with every field wildcarded.
func MatchAll() Match { return Match{SrcPort: AnyPort, DstPort: AnyPort} }

// Matches reports whether the flow header satisfies the pattern.
func (m Match) Matches(f netpkt.FlowKey) bool {
	if m.SrcMAC != nil && f.SrcMAC != *m.SrcMAC {
		return false
	}
	if m.Proto != 0 && f.Proto != m.Proto {
		return false
	}
	if m.SrcIP.IsValid() && !(f.Src.IsValid() && m.SrcIP.Contains(f.Src)) {
		return false
	}
	if m.DstIP.IsValid() && !(f.Dst.IsValid() && m.DstIP.Contains(f.Dst)) {
		return false
	}
	if m.SrcPort != AnyPort && int32(f.SrcPort) != m.SrcPort {
		return false
	}
	if m.DstPort != AnyPort && int32(f.DstPort) != m.DstPort {
		return false
	}
	return true
}

// CriteriaCount returns the number of TCAM criteria the pattern consumes,
// split into MAC (L2) and L3-L4 criteria — the two budget dimensions of
// the hardware model and Figure 9.
func (m Match) CriteriaCount() (mac, l34 int) {
	if m.SrcMAC != nil {
		mac++
	}
	if m.Proto != 0 {
		l34++
	}
	if m.SrcIP.IsValid() {
		l34++
	}
	if m.DstIP.IsValid() {
		l34++
	}
	if m.SrcPort != AnyPort {
		l34++
	}
	if m.DstPort != AnyPort {
		l34++
	}
	return mac, l34
}

func (m Match) String() string {
	var parts []string
	if m.SrcMAC != nil {
		parts = append(parts, "src-mac="+m.SrcMAC.String())
	}
	if m.Proto != 0 {
		parts = append(parts, "proto="+m.Proto.String())
	}
	if m.SrcIP.IsValid() {
		parts = append(parts, "src="+m.SrcIP.String())
	}
	if m.DstIP.IsValid() {
		parts = append(parts, "dst="+m.DstIP.String())
	}
	if m.SrcPort != AnyPort {
		parts = append(parts, fmt.Sprintf("src-port=%d", m.SrcPort))
	}
	if m.DstPort != AnyPort {
		parts = append(parts, fmt.Sprintf("dst-port=%d", m.DstPort))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
