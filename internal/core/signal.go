// Package core holds the building blocks of Stellar, the Advanced
// Blackholing system of Sections 3 and 4: the BGP extended-community
// signaling codec, the customer portal for custom blackholing rules,
// the abstract configuration change with its token-bucket change queue,
// and the network manager that compiles abstract changes into QoS
// data-plane state under hardware admission control. The blackholing
// controller that drives them is internal/mitctl.
package core

import (
	"encoding/binary"
	"fmt"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// Selector encodes which header field a predefined blackholing rule
// matches, mirroring the paper's community scheme where "IXP:2:123"
// means "UDP source port 123" (Section 5.3).
type Selector uint8

// Selectors.
const (
	// SelProto matches an entire transport protocol (port ignored).
	SelProto Selector = 1
	// SelUDPSrcPort matches UDP traffic from one source port — the
	// paper's "2" selector, the workhorse for amplification attacks.
	SelUDPSrcPort Selector = 2
	// SelUDPDstPort matches UDP traffic to one destination port.
	SelUDPDstPort Selector = 3
	// SelTCPSrcPort matches TCP traffic from one source port.
	SelTCPSrcPort Selector = 4
	// SelTCPDstPort matches TCP traffic to one destination port.
	SelTCPDstPort Selector = 5
	// SelCustom references a rule predefined in the customer portal;
	// the port field carries nothing and the payload is the rule ID.
	SelCustom Selector = 100
)

// ShapeRateUnitBps is the granularity of shaping rates in the signal
// encoding: the action byte's rate code is multiplied by 25 Mbps, giving
// a 25 Mbps .. 6.375 Gbps range in one byte.
const ShapeRateUnitBps = 25e6

// RuleSpec is one decoded Advanced Blackholing signal: what to match
// (beyond the announced destination prefix) and what to do with it.
type RuleSpec struct {
	Selector Selector
	Proto    netpkt.IPProto
	Port     uint16
	// CustomID is the portal rule ID when Selector == SelCustom.
	CustomID uint32
	Action   fabric.ActionKind
	// ShapeRateBps is the rate limit for ActionShape.
	ShapeRateBps float64
}

// DropUDPSrcPort returns the spec for the canonical amplification
// mitigation: drop UDP traffic from the given source port.
func DropUDPSrcPort(port uint16) RuleSpec {
	return RuleSpec{Selector: SelUDPSrcPort, Proto: netpkt.ProtoUDP, Port: port, Action: fabric.ActionDrop}
}

// ShapeUDPSrcPort returns the spec shaping UDP traffic from the given
// source port to rateBps — the telemetry mode of Section 5.3.
func ShapeUDPSrcPort(port uint16, rateBps float64) RuleSpec {
	return RuleSpec{Selector: SelUDPSrcPort, Proto: netpkt.ProtoUDP, Port: port,
		Action: fabric.ActionShape, ShapeRateBps: rateBps}
}

// DropProto returns the spec dropping an entire transport protocol.
func DropProto(proto netpkt.IPProto) RuleSpec {
	return RuleSpec{Selector: SelProto, Proto: proto, Action: fabric.ActionDrop}
}

// Custom returns a spec referencing a portal-defined rule.
func Custom(id uint32) RuleSpec {
	return RuleSpec{Selector: SelCustom, CustomID: id}
}

// Encode packs the spec into Stellar's Advanced Blackholing extended
// community (experimental type 0x80, sub-type 0x66). Layout of the
// 6-byte value:
//
//	byte 0: selector
//	byte 1: transport protocol (or 0)
//	byte 2-3: port (big endian), or bytes 2-5 = custom rule ID
//	byte 4: action (0 drop, 1 shape)
//	byte 5: shape rate code (rate = code * 25 Mbps)
func (s RuleSpec) Encode() (bgp.ExtCommunity, error) {
	var v [6]byte
	v[0] = byte(s.Selector)
	if s.Selector == SelCustom {
		binary.BigEndian.PutUint32(v[2:6], s.CustomID)
		return bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, v), nil
	}
	v[1] = byte(s.Proto)
	binary.BigEndian.PutUint16(v[2:4], s.Port)
	switch s.Action {
	case fabric.ActionDrop:
		v[4] = 0
	case fabric.ActionShape:
		v[4] = 1
		code := int(s.ShapeRateBps/ShapeRateUnitBps + 0.5)
		if code < 1 || code > 255 {
			return bgp.ExtCommunity{}, fmt.Errorf("core: shape rate %v out of encodable range", s.ShapeRateBps)
		}
		v[5] = byte(code)
	default:
		return bgp.ExtCommunity{}, fmt.Errorf("core: action %v not signalable", s.Action)
	}
	return bgp.MakeExtCommunity(bgp.ExtTypeExperimental, bgp.ExtSubTypeAdvBlackhole, v), nil
}

// DecodeSignal parses an Advanced Blackholing extended community. It
// returns ok=false for other communities or malformed payloads.
func DecodeSignal(e bgp.ExtCommunity) (RuleSpec, bool) {
	if e.Type() != bgp.ExtTypeExperimental || e.SubType() != bgp.ExtSubTypeAdvBlackhole {
		return RuleSpec{}, false
	}
	v := e.Value()
	s := RuleSpec{Selector: Selector(v[0])}
	if s.Selector == SelCustom {
		s.CustomID = binary.BigEndian.Uint32(v[2:6])
		return s, true
	}
	s.Proto = netpkt.IPProto(v[1])
	s.Port = binary.BigEndian.Uint16(v[2:4])
	switch v[4] {
	case 0:
		s.Action = fabric.ActionDrop
	case 1:
		s.Action = fabric.ActionShape
		if v[5] == 0 {
			return RuleSpec{}, false
		}
		s.ShapeRateBps = float64(v[5]) * ShapeRateUnitBps
	default:
		return RuleSpec{}, false
	}
	switch s.Selector {
	case SelProto:
		if s.Proto == 0 {
			return RuleSpec{}, false
		}
	case SelUDPSrcPort, SelUDPDstPort:
		s.Proto = netpkt.ProtoUDP
	case SelTCPSrcPort, SelTCPDstPort:
		s.Proto = netpkt.ProtoTCP
	default:
		return RuleSpec{}, false
	}
	return s, true
}

// SignalsFrom extracts every Advanced Blackholing rule spec carried on a
// route's attributes, in attribute order.
func SignalsFrom(attrs *bgp.PathAttrs) []RuleSpec {
	var out []RuleSpec
	for _, e := range attrs.ExtCommunities {
		if s, ok := DecodeSignal(e); ok {
			out = append(out, s)
		}
	}
	return out
}

// Match builds the fabric classification pattern for the spec against a
// destination prefix (the prefix the victim announced).
func (s RuleSpec) Match(dst fabric.Match) fabric.Match {
	m := dst
	m.Proto = s.Proto
	switch s.Selector {
	case SelProto:
		// protocol only
	case SelUDPSrcPort, SelTCPSrcPort:
		m.SrcPort = int32(s.Port)
	case SelUDPDstPort, SelTCPDstPort:
		m.DstPort = int32(s.Port)
	}
	return m
}

func (s RuleSpec) String() string {
	if s.Selector == SelCustom {
		return fmt.Sprintf("custom#%d", s.CustomID)
	}
	dir := "src"
	if s.Selector == SelUDPDstPort || s.Selector == SelTCPDstPort {
		dir = "dst"
	}
	act := "drop"
	if s.Action == fabric.ActionShape {
		act = fmt.Sprintf("shape@%.0fMbps", s.ShapeRateBps/1e6)
	}
	if s.Selector == SelProto {
		return fmt.Sprintf("%s %s", act, s.Proto)
	}
	return fmt.Sprintf("%s %s %s-port %d", act, s.Proto, dir, s.Port)
}
