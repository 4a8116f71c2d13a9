package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"strings"
)

// This file implements the BGP flow specification NLRI of RFC 5575 —
// the signaling candidate Section 4.2.1 evaluates (and rejects) for
// Stellar. It is a full wire implementation: IXP members peering
// bilaterally can exchange Flowspec rules through this stack, and the
// comparison experiments use it to model inter-domain Flowspec
// deployments faithfully.

// FlowSpecType is an RFC 5575 §4 component type.
type FlowSpecType uint8

// Flow specification component types.
const (
	FSDstPrefix FlowSpecType = 1
	FSSrcPrefix FlowSpecType = 2
	FSIPProto   FlowSpecType = 3
	FSPort      FlowSpecType = 4
	FSDstPort   FlowSpecType = 5
	FSSrcPort   FlowSpecType = 6
	FSICMPType  FlowSpecType = 7
	FSICMPCode  FlowSpecType = 8
	FSTCPFlags  FlowSpecType = 9
	FSPacketLen FlowSpecType = 10
	FSDSCP      FlowSpecType = 11
	FSFragment  FlowSpecType = 12
)

func (t FlowSpecType) String() string {
	switch t {
	case FSDstPrefix:
		return "dst-prefix"
	case FSSrcPrefix:
		return "src-prefix"
	case FSIPProto:
		return "ip-proto"
	case FSPort:
		return "port"
	case FSDstPort:
		return "dst-port"
	case FSSrcPort:
		return "src-port"
	case FSICMPType:
		return "icmp-type"
	case FSICMPCode:
		return "icmp-code"
	case FSTCPFlags:
		return "tcp-flags"
	case FSPacketLen:
		return "packet-len"
	case FSDSCP:
		return "dscp"
	case FSFragment:
		return "fragment"
	default:
		return fmt.Sprintf("FlowSpecType(%d)", uint8(t))
	}
}

// Numeric operator bits (RFC 5575 §4, numeric operand encoding).
const (
	fsOpEnd = 0x80 // end-of-list
	fsOpAnd = 0x40 // AND with previous
	fsOpLT  = 0x04
	fsOpGT  = 0x02
	fsOpEQ  = 0x01
)

// FlowSpecMatch is one (operator, value) pair of a numeric component.
type FlowSpecMatch struct {
	// AND combines this match with the previous one (default: OR).
	AND bool
	LT  bool
	GT  bool
	EQ  bool
	// Value is the operand (ports, protocol numbers, lengths...).
	Value uint64
}

// Eq returns an equality match for v.
func Eq(v uint64) FlowSpecMatch { return FlowSpecMatch{EQ: true, Value: v} }

// FlowSpecComponent is one typed component of a flow specification.
type FlowSpecComponent struct {
	Type FlowSpecType
	// Prefix is set for FSDstPrefix / FSSrcPrefix.
	Prefix netip.Prefix
	// Matches is set for numeric component types.
	Matches []FlowSpecMatch
}

// FlowSpec is an ordered RFC 5575 flow specification.
type FlowSpec struct {
	Components []FlowSpecComponent
}

// Flowspec errors.
var (
	ErrFlowSpecOrder     = errors.New("bgp: flowspec components out of order")
	ErrFlowSpecBadComp   = errors.New("bgp: malformed flowspec component")
	ErrFlowSpecTooLong   = errors.New("bgp: flowspec NLRI too long")
	ErrFlowSpecTruncated = errors.New("bgp: truncated flowspec NLRI")
)

// DstPrefix returns a destination-prefix component.
func DstPrefix(p netip.Prefix) FlowSpecComponent {
	return FlowSpecComponent{Type: FSDstPrefix, Prefix: p.Masked()}
}

// Numeric returns a numeric component of the given type.
func Numeric(t FlowSpecType, matches ...FlowSpecMatch) FlowSpecComponent {
	return FlowSpecComponent{Type: t, Matches: matches}
}

// Marshal encodes the flow specification as wire-format NLRI including
// the leading length. Components must be in strictly ascending type
// order (RFC 5575 §4: "components ... MUST follow the order").
func (f *FlowSpec) Marshal() ([]byte, error) {
	var body []byte
	prev := FlowSpecType(0)
	for _, c := range f.Components {
		if c.Type <= prev {
			return nil, ErrFlowSpecOrder
		}
		prev = c.Type
		body = append(body, byte(c.Type))
		switch c.Type {
		case FSDstPrefix, FSSrcPrefix:
			if !c.Prefix.IsValid() || !c.Prefix.Addr().Is4() {
				return nil, fmt.Errorf("bgp: flowspec %s needs an IPv4 prefix", c.Type)
			}
			bits := c.Prefix.Bits()
			body = append(body, byte(bits))
			a := c.Prefix.Addr().As4()
			body = append(body, a[:(bits+7)/8]...)
		default:
			if len(c.Matches) == 0 {
				return nil, ErrFlowSpecBadComp
			}
			for i, m := range c.Matches {
				op := byte(0)
				if i == len(c.Matches)-1 {
					op |= fsOpEnd
				}
				if m.AND {
					op |= fsOpAnd
				}
				if m.LT {
					op |= fsOpLT
				}
				if m.GT {
					op |= fsOpGT
				}
				if m.EQ {
					op |= fsOpEQ
				}
				valLen, lenBits := fsValueLen(m.Value)
				op |= lenBits << 4
				body = append(body, op)
				switch valLen {
				case 1:
					body = append(body, byte(m.Value))
				case 2:
					var b [2]byte
					binary.BigEndian.PutUint16(b[:], uint16(m.Value))
					body = append(body, b[:]...)
				case 4:
					var b [4]byte
					binary.BigEndian.PutUint32(b[:], uint32(m.Value))
					body = append(body, b[:]...)
				default:
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], m.Value)
					body = append(body, b[:]...)
				}
			}
		}
	}
	if len(body) >= 0xf000 {
		return nil, ErrFlowSpecTooLong
	}
	// Length: 1 byte when < 240, else 2 bytes with 0xF high nibble.
	if len(body) < 240 {
		return append([]byte{byte(len(body))}, body...), nil
	}
	hdr := []byte{0xf0 | byte(len(body)>>8), byte(len(body))}
	return append(hdr, body...), nil
}

// fsValueLen picks the smallest encodable operand width and its length
// bits (00=1, 01=2, 10=4, 11=8 bytes).
func fsValueLen(v uint64) (int, byte) {
	switch {
	case v <= 0xff:
		return 1, 0
	case v <= 0xffff:
		return 2, 1
	case v <= 0xffffffff:
		return 4, 2
	default:
		return 8, 3
	}
}

// UnmarshalFlowSpec decodes one flow specification NLRI from data,
// returning the spec and the number of bytes consumed.
func UnmarshalFlowSpec(data []byte) (*FlowSpec, int, error) {
	if len(data) < 1 {
		return nil, 0, ErrFlowSpecTruncated
	}
	var length, off int
	if data[0]&0xf0 == 0xf0 {
		if len(data) < 2 {
			return nil, 0, ErrFlowSpecTruncated
		}
		length = int(data[0]&0x0f)<<8 | int(data[1])
		off = 2
	} else {
		length = int(data[0])
		off = 1
	}
	if len(data) < off+length {
		return nil, 0, ErrFlowSpecTruncated
	}
	body := data[off : off+length]
	consumed := off + length

	fs := &FlowSpec{}
	prev := FlowSpecType(0)
	for len(body) > 0 {
		t := FlowSpecType(body[0])
		if t <= prev {
			return nil, 0, ErrFlowSpecOrder
		}
		prev = t
		body = body[1:]
		switch t {
		case FSDstPrefix, FSSrcPrefix:
			if len(body) < 1 {
				return nil, 0, ErrFlowSpecTruncated
			}
			bits := int(body[0])
			if bits > 32 {
				return nil, 0, ErrFlowSpecBadComp
			}
			body = body[1:]
			nBytes := (bits + 7) / 8
			if len(body) < nBytes {
				return nil, 0, ErrFlowSpecTruncated
			}
			var a [4]byte
			copy(a[:], body[:nBytes])
			body = body[nBytes:]
			pfx := netip.PrefixFrom(netip.AddrFrom4(a), bits)
			if pfx != pfx.Masked() {
				return nil, 0, ErrFlowSpecBadComp
			}
			fs.Components = append(fs.Components, FlowSpecComponent{Type: t, Prefix: pfx})
		default:
			var matches []FlowSpecMatch
			for {
				if len(body) < 1 {
					return nil, 0, ErrFlowSpecTruncated
				}
				op := body[0]
				body = body[1:]
				valLen := 1 << ((op >> 4) & 0x3)
				if len(body) < valLen {
					return nil, 0, ErrFlowSpecTruncated
				}
				var v uint64
				for i := 0; i < valLen; i++ {
					v = v<<8 | uint64(body[i])
				}
				body = body[valLen:]
				matches = append(matches, FlowSpecMatch{
					AND:   op&fsOpAnd != 0,
					LT:    op&fsOpLT != 0,
					GT:    op&fsOpGT != 0,
					EQ:    op&fsOpEQ != 0,
					Value: v,
				})
				if op&fsOpEnd != 0 {
					break
				}
			}
			fs.Components = append(fs.Components, FlowSpecComponent{Type: t, Matches: matches})
		}
	}
	return fs, consumed, nil
}

// Component returns the component of the given type, or nil.
func (f *FlowSpec) Component(t FlowSpecType) *FlowSpecComponent {
	for i := range f.Components {
		if f.Components[i].Type == t {
			return &f.Components[i]
		}
	}
	return nil
}

func (f *FlowSpec) String() string {
	parts := make([]string, 0, len(f.Components))
	for _, c := range f.Components {
		switch c.Type {
		case FSDstPrefix, FSSrcPrefix:
			parts = append(parts, fmt.Sprintf("%s=%s", c.Type, c.Prefix))
		default:
			ms := make([]string, len(c.Matches))
			for i, m := range c.Matches {
				op := ""
				if m.LT {
					op += "<"
				}
				if m.GT {
					op += ">"
				}
				if m.EQ {
					op += "="
				}
				ms[i] = fmt.Sprintf("%s%d", op, m.Value)
			}
			parts = append(parts, fmt.Sprintf("%s%s", c.Type, strings.Join(ms, "|")))
		}
	}
	return strings.Join(parts, " ")
}

// Traffic filtering actions (RFC 5575 §7) travel as extended
// communities. ExtSubTypeTrafficRate is the rate limiter: a rate of 0
// drops matching traffic.
const ExtSubTypeTrafficRate uint8 = 0x06

// TrafficRate builds the traffic-rate extended community: informative
// 2-octet AS plus an IEEE float rate in bytes per second.
func TrafficRate(as uint16, bytesPerSec float32) ExtCommunity {
	var v [6]byte
	binary.BigEndian.PutUint16(v[0:2], as)
	binary.BigEndian.PutUint32(v[2:6], math.Float32bits(bytesPerSec))
	return MakeExtCommunity(ExtTypeExperimental, ExtSubTypeTrafficRate, v)
}

// TrafficRateValue parses a traffic-rate extended community; ok is false
// for other communities.
func TrafficRateValue(e ExtCommunity) (as uint16, bytesPerSec float32, ok bool) {
	if e.Type() != ExtTypeExperimental || e.SubType() != ExtSubTypeTrafficRate {
		return 0, 0, false
	}
	v := e.Value()
	return binary.BigEndian.Uint16(v[0:2]), math.Float32frombits(binary.BigEndian.Uint32(v[2:6])), true
}
