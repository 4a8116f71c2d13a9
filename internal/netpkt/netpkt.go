package netpkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPProto identifies the transport protocol of an IP packet.
type IPProto uint8

// Transport protocols the QoS classifier can match on.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// ParseMAC parses the colon-separated hexadecimal form "aa:bb:cc:dd:ee:ff".
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("netpkt: invalid MAC %q", s)
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := hexVal(s[i*3])
		lo, ok2 := hexVal(s[i*3+1])
		if !ok1 || !ok2 {
			return m, fmt.Errorf("netpkt: invalid MAC %q", s)
		}
		if i < 5 && s[i*3+2] != ':' {
			return m, fmt.Errorf("netpkt: invalid MAC %q", s)
		}
		m[i] = hi<<4 | lo
	}
	return m, nil
}

// MustParseMAC is ParseMAC that panics on error; intended for constants
// in tests and examples.
func MustParseMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Key packs the MAC into the low 48 bits of a uint64, first octet
// highest. The packing is lossless, so the key stands in for the MAC as
// a map key or a comparison: a uint64 key takes the runtime's 64-bit
// map fast path where a [6]byte one is hashed byte-wise.
func (m MAC) Key() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

func (m MAC) String() string {
	const hexDigit = "0123456789abcdef"
	buf := make([]byte, 0, 17)
	for i, b := range m {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, hexDigit[b>>4], hexDigit[b&0xF])
	}
	return string(buf)
}

// FlowKey is a hashable 5-tuple plus the source MAC; the fabric and the
// flow monitor aggregate on it.
type FlowKey struct {
	SrcMAC  MAC
	Src     netip.Addr
	Dst     netip.Addr
	Proto   IPProto
	SrcPort uint16
	DstPort uint16
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d -> %s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Hash returns a 64-bit FNV-1a digest of the flow key. It never returns
// 0, so callers can use the zero value as a "not yet computed" sentinel
// (fabric.Offer.FlowHash does). Traffic generators compute it once per
// flow and carry it alongside the key so per-tick hot loops do no
// re-hashing.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range k.SrcMAC {
		h = (h ^ uint64(b)) * prime
	}
	h = hashAddr(h, k.Src)
	h = hashAddr(h, k.Dst)
	h = (h ^ uint64(k.Proto)) * prime
	h = (h ^ (uint64(k.SrcPort) | uint64(k.DstPort)<<16)) * prime
	if h == 0 {
		return 1
	}
	return h
}

func hashAddr(h uint64, a netip.Addr) uint64 {
	const prime = 1099511628211
	if !a.IsValid() {
		return (h ^ 0xff) * prime
	}
	b := a.As16()
	for i := 0; i < 16; i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(b[i:])) * prime
	}
	if a.Is4() {
		h = (h ^ 4) * prime
	}
	return h
}
