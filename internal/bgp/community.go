package bgp

import "fmt"

// Community is an RFC 1997 BGP community: a 32-bit tag conventionally
// written "asn:value" with the high 16 bits the AS and the low 16 bits an
// AS-local value.
type Community uint32

// Well-known communities (RFC 1997 §2, RFC 7999 §5).
const (
	// CommunityBlackhole is the IANA well-known BLACKHOLE community
	// (65535:666, RFC 7999) that triggers RTBH at IXP route servers.
	CommunityBlackhole Community = 0xFFFF029A
	// CommunityNoExport prevents advertisement outside the AS/confederation.
	CommunityNoExport Community = 0xFFFFFF01
	// CommunityNoAdvertise prevents advertisement to any peer.
	CommunityNoAdvertise Community = 0xFFFFFF02
)

// MakeCommunity builds a community from its "asn:value" halves.
func MakeCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits.
func (c Community) Value() uint16 { return uint16(c) }

func (c Community) String() string {
	switch c {
	case CommunityBlackhole:
		return "blackhole"
	case CommunityNoExport:
		return "no-export"
	case CommunityNoAdvertise:
		return "no-advertise"
	}
	return fmt.Sprintf("%d:%d", c.ASN(), c.Value())
}

// Extended community types (RFC 4360). Stellar allocates its Advanced
// Blackholing namespace within the experimental two-octet-AS-specific
// type, mirroring how the production deployment defines a distinct
// community namespace for blackholing rules (Section 4.2.1).
const (
	// ExtTypeTwoOctetAS is the transitive two-octet-AS-specific type.
	ExtTypeTwoOctetAS uint8 = 0x00
	// ExtTypeExperimental is the transitive experimental type (0x80),
	// used for the Advanced Blackholing signal.
	ExtTypeExperimental uint8 = 0x80
	// ExtSubTypeAdvBlackhole identifies Stellar's Advanced Blackholing
	// extended community within the experimental type. The 6-byte value
	// encodes (ruleset ASN, rule reference) — see package core for the
	// rule reference semantics.
	ExtSubTypeAdvBlackhole uint8 = 0x66
	// ExtSubTypeRouteTarget is the standard route-target sub-type.
	ExtSubTypeRouteTarget uint8 = 0x02
)

// ExtCommunity is an 8-byte RFC 4360 extended community.
type ExtCommunity [8]byte

// MakeExtCommunity builds an extended community from type, sub-type and a
// 6-byte value.
func MakeExtCommunity(typ, subType uint8, value [6]byte) ExtCommunity {
	var e ExtCommunity
	e[0], e[1] = typ, subType
	copy(e[2:], value[:])
	return e
}

// Type returns the high-order type byte.
func (e ExtCommunity) Type() uint8 { return e[0] }

// SubType returns the sub-type byte.
func (e ExtCommunity) SubType() uint8 { return e[1] }

// Value returns the 6-byte value field.
func (e ExtCommunity) Value() [6]byte {
	var v [6]byte
	copy(v[:], e[2:])
	return v
}

func (e ExtCommunity) String() string {
	return fmt.Sprintf("ext:0x%02x:0x%02x:%02x%02x%02x%02x%02x%02x",
		e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7])
}
