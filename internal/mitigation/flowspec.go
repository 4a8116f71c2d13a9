package mitigation

import (
	"errors"
	"fmt"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// Errors from compiling flow specifications into fabric matches. They
// name the reason a spec cannot be expressed as exact-match TCAM
// patterns — the "needs slow-path processing" cases Section 4.2.1 holds
// against Flowspec as a signaling channel.
var (
	// ErrFlowSpecNonEquality: a numeric operand uses a range (<, >) or
	// negated operator; exact-match hardware cannot express it.
	ErrFlowSpecNonEquality = errors.New("mitigation: flowspec operand is not an equality match")
	// ErrFlowSpecComponent: the component type (TCP flags, fragments,
	// packet length, DSCP...) has no fabric match field.
	ErrFlowSpecComponent = errors.New("mitigation: flowspec component not expressible as a fabric match")
	// ErrFlowSpecValue: an operand value is out of range for its field.
	ErrFlowSpecValue = errors.New("mitigation: flowspec operand value out of range")
	// ErrFlowSpecTooWide: the value-set cross product exceeds
	// MaxFlowSpecMatches patterns.
	ErrFlowSpecTooWide = errors.New("mitigation: flowspec value sets expand to too many patterns")
)

// MaxFlowSpecMatches bounds the cross-product expansion of
// FlowSpecToMatches: a spec whose value sets multiply out to more
// exact-match patterns than this is refused (it would exhaust TCAM
// criteria anyway — hardware admission control territory).
const MaxFlowSpecMatches = 64

// FlowSpecToMatches compiles an RFC 5575 flow specification into the
// fabric's exact-match patterns. Equality value sets are supported: a
// component listing several equality operands (RFC 5575's OR semantics,
// e.g. src-port =123 =11211) expands to one Match per value, and
// multiple multi-value components expand to their cross product (capped
// at MaxFlowSpecMatches). The supported component types are the ones a
// TCAM filter holds: dst/src prefix, IP protocol, src/dst port.
//
// Ranges (<, >), unsupported component types and out-of-range values
// return one of the documented Err* errors — the caller decides whether
// that means slow-path processing (the comparison experiments) or a
// rejected mitigation request (mitctl's FlowSpec channel). A caller
// with room for a single pattern per spec also requires len == 1.
//
// Each returned Match is exactly what fabric.Port.InstallRule feeds the
// port's compiled classifier: a pinned port lands the rule in an
// exact-match table, a prefix component in a prefix trie, so accepted
// Flowspec rules ride the same lock-free fast path as native Stellar
// rules.
func FlowSpecToMatches(fs *bgp.FlowSpec) ([]fabric.Match, error) {
	matches := []fabric.Match{fabric.MatchAll()}
	expand := func(vals []uint64, set func(*fabric.Match, uint64)) error {
		if len(matches)*len(vals) > MaxFlowSpecMatches {
			return fmt.Errorf("%w: %d patterns (max %d)",
				ErrFlowSpecTooWide, len(matches)*len(vals), MaxFlowSpecMatches)
		}
		out := make([]fabric.Match, 0, len(matches)*len(vals))
		for _, m := range matches {
			for _, v := range vals {
				mm := m
				set(&mm, v)
				out = append(out, mm)
			}
		}
		matches = out
		return nil
	}
	for _, c := range fs.Components {
		switch c.Type {
		case bgp.FSDstPrefix:
			for i := range matches {
				matches[i].DstIP = c.Prefix
			}
		case bgp.FSSrcPrefix:
			for i := range matches {
				matches[i].SrcIP = c.Prefix
			}
		case bgp.FSIPProto:
			vals, err := equalityValues(c, 255)
			if err != nil {
				return nil, err
			}
			if err := expand(vals, func(m *fabric.Match, v uint64) { m.Proto = netpkt.IPProto(v) }); err != nil {
				return nil, err
			}
		case bgp.FSSrcPort:
			vals, err := equalityValues(c, 65535)
			if err != nil {
				return nil, err
			}
			if err := expand(vals, func(m *fabric.Match, v uint64) { m.SrcPort = int32(v) }); err != nil {
				return nil, err
			}
		case bgp.FSDstPort:
			vals, err := equalityValues(c, 65535)
			if err != nil {
				return nil, err
			}
			if err := expand(vals, func(m *fabric.Match, v uint64) { m.DstPort = int32(v) }); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: %s", ErrFlowSpecComponent, c.Type)
		}
	}
	return matches, nil
}

// equalityValues extracts a component's operand values, requiring every
// operand to be a pure equality match within [0, max].
func equalityValues(c bgp.FlowSpecComponent, max uint64) ([]uint64, error) {
	vals := make([]uint64, 0, len(c.Matches))
	for _, m := range c.Matches {
		if !m.EQ || m.LT || m.GT {
			return nil, fmt.Errorf("%w: %s", ErrFlowSpecNonEquality, c.Type)
		}
		if m.Value > max {
			return nil, fmt.Errorf("%w: %s = %d", ErrFlowSpecValue, c.Type, m.Value)
		}
		vals = append(vals, m.Value)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%w: %s has no operands", ErrFlowSpecValue, c.Type)
	}
	return vals, nil
}

// FlowSpecAction derives the filtering action from a route's extended
// communities per RFC 5575 §7: a traffic-rate of 0 drops, a positive
// rate shapes. ok is false when no traffic-filtering action is present.
func FlowSpecAction(attrs *bgp.PathAttrs) (action fabric.ActionKind, rateBps float64, ok bool) {
	for _, e := range attrs.ExtCommunities {
		if _, bytesPerSec, isRate := bgp.TrafficRateValue(e); isRate {
			if bytesPerSec == 0 {
				return fabric.ActionDrop, 0, true
			}
			return fabric.ActionShape, float64(bytesPerSec) * 8, true
		}
	}
	return fabric.ActionForward, 0, false
}
