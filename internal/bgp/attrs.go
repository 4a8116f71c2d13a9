package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Origin is the ORIGIN path attribute value.
type Origin uint8

// Origin codes (RFC 4271 §5.1.1).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "Incomplete"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// AS path segment types (RFC 4271 §5.1.2).
const (
	ASSet      uint8 = 1
	ASSequence uint8 = 2
)

// ASPathSegment is one segment of the AS_PATH attribute. ASNs are always
// 4 octets on our wire (all speakers advertise RFC 6793 support).
type ASPathSegment struct {
	Type uint8 // ASSet or ASSequence
	ASNs []uint32
}

// Path attribute type codes.
const (
	attrOrigin          = 1
	attrASPath          = 2
	attrNextHop         = 3
	attrMED             = 4
	attrLocalPref       = 5
	attrAtomicAggregate = 6
	attrAggregator      = 7
	attrCommunities     = 8
	attrMPReach         = 14
	attrMPUnreach       = 15
	attrExtCommunities  = 16
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// MPReach is the MP_REACH_NLRI attribute carrying non-IPv4 (here: IPv6)
// reachability together with its next hop (RFC 4760 §3).
type MPReach struct {
	AFI     AFI
	SAFI    SAFI
	NextHop netip.Addr
	NLRI    []PathPrefix
}

// MPUnreach is the MP_UNREACH_NLRI attribute withdrawing non-IPv4 routes.
type MPUnreach struct {
	AFI  AFI
	SAFI SAFI
	NLRI []PathPrefix
}

// PathAttrs is the decoded set of path attributes of an UPDATE.
type PathAttrs struct {
	Origin          Origin
	ASPath          []ASPathSegment
	NextHop         netip.Addr // zero when absent (e.g. MP-only updates)
	MED             *uint32
	LocalPref       *uint32
	AtomicAggregate bool
	Communities     []Community
	ExtCommunities  []ExtCommunity
	MPReach         *MPReach
	MPUnreach       *MPUnreach
}

// HasCommunity reports whether c is present in the communities attribute.
func (a *PathAttrs) HasCommunity(c Community) bool {
	for _, x := range a.Communities {
		if x == c {
			return true
		}
	}
	return false
}

// AddCommunity appends c if not already present.
func (a *PathAttrs) AddCommunity(c Community) {
	if !a.HasCommunity(c) {
		a.Communities = append(a.Communities, c)
	}
}

// OriginAS returns the rightmost ASN of the AS_PATH — the route's
// originating AS — or 0 for an empty path.
func (a *PathAttrs) OriginAS() uint32 {
	for i := len(a.ASPath) - 1; i >= 0; i-- {
		seg := a.ASPath[i]
		if seg.Type == ASSequence && len(seg.ASNs) > 0 {
			return seg.ASNs[len(seg.ASNs)-1]
		}
	}
	return 0
}

// PathLen returns the AS_PATH length for best-path comparison: each
// AS_SEQUENCE member counts 1, each AS_SET counts 1 total (RFC 4271 §9.1.2.2).
func (a *PathAttrs) PathLen() int {
	n := 0
	for _, seg := range a.ASPath {
		if seg.Type == ASSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// Clone returns a deep copy of the attributes; route servers mutate
// copies so peers never share attribute storage.
func (a *PathAttrs) Clone() PathAttrs {
	out := *a
	out.ASPath = make([]ASPathSegment, len(a.ASPath))
	for i, seg := range a.ASPath {
		out.ASPath[i] = ASPathSegment{Type: seg.Type, ASNs: append([]uint32(nil), seg.ASNs...)}
	}
	out.Communities = append([]Community(nil), a.Communities...)
	out.ExtCommunities = append([]ExtCommunity(nil), a.ExtCommunities...)
	if a.MED != nil {
		v := *a.MED
		out.MED = &v
	}
	if a.LocalPref != nil {
		v := *a.LocalPref
		out.LocalPref = &v
	}
	if a.MPReach != nil {
		mp := *a.MPReach
		mp.NLRI = append([]PathPrefix(nil), a.MPReach.NLRI...)
		out.MPReach = &mp
	}
	if a.MPUnreach != nil {
		mp := *a.MPUnreach
		mp.NLRI = append([]PathPrefix(nil), a.MPUnreach.NLRI...)
		out.MPUnreach = &mp
	}
	return out
}

func (a *PathAttrs) String() string {
	var parts []string
	parts = append(parts, "origin="+a.Origin.String())
	if len(a.ASPath) > 0 {
		var b strings.Builder
		b.WriteString("as-path=")
		for i, seg := range a.ASPath {
			if i > 0 {
				b.WriteByte(' ')
			}
			if seg.Type == ASSet {
				b.WriteByte('{')
			}
			for j, as := range seg.ASNs {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d", as)
			}
			if seg.Type == ASSet {
				b.WriteByte('}')
			}
		}
		parts = append(parts, b.String())
	}
	if a.NextHop.IsValid() {
		parts = append(parts, "next-hop="+a.NextHop.String())
	}
	if len(a.Communities) > 0 {
		cs := make([]string, len(a.Communities))
		for i, c := range a.Communities {
			cs[i] = c.String()
		}
		sort.Strings(cs)
		parts = append(parts, "communities=["+strings.Join(cs, ",")+"]")
	}
	return strings.Join(parts, " ")
}

// appendAttr writes one attribute with flags, type, and (extended when
// needed) length.
func appendAttr(dst []byte, flags, typ uint8, val []byte) ([]byte, error) {
	if len(val) > 0xffff {
		return nil, ErrAttrTooLong
	}
	if len(val) > 0xff {
		flags |= flagExtLen
	}
	dst = append(dst, flags, typ)
	if flags&flagExtLen != 0 {
		dst = append(dst, byte(len(val)>>8), byte(len(val)))
	} else {
		dst = append(dst, byte(len(val)))
	}
	return append(dst, val...), nil
}

// marshalAttrs encodes the attribute set in canonical (ascending type
// code) order.
func (a *PathAttrs) marshalAttrs(opts *Options) ([]byte, error) {
	var dst []byte
	var err error

	dst, err = appendAttr(dst, flagTransitive, attrOrigin, []byte{byte(a.Origin)})
	if err != nil {
		return nil, err
	}

	var asPath []byte
	for _, seg := range a.ASPath {
		if len(seg.ASNs) > 255 {
			return nil, ErrAttrTooLong
		}
		asPath = append(asPath, seg.Type, byte(len(seg.ASNs)))
		for _, as := range seg.ASNs {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], as)
			asPath = append(asPath, b[:]...)
		}
	}
	dst, err = appendAttr(dst, flagTransitive, attrASPath, asPath)
	if err != nil {
		return nil, err
	}

	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: NEXT_HOP %v must be IPv4 (use MP_REACH for IPv6)", a.NextHop)
		}
		nh := a.NextHop.As4()
		dst, err = appendAttr(dst, flagTransitive, attrNextHop, nh[:])
		if err != nil {
			return nil, err
		}
	}
	if a.MED != nil {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], *a.MED)
		dst, err = appendAttr(dst, flagOptional, attrMED, b[:])
		if err != nil {
			return nil, err
		}
	}
	if a.LocalPref != nil {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], *a.LocalPref)
		dst, err = appendAttr(dst, flagTransitive, attrLocalPref, b[:])
		if err != nil {
			return nil, err
		}
	}
	if a.AtomicAggregate {
		dst, err = appendAttr(dst, flagTransitive, attrAtomicAggregate, nil)
		if err != nil {
			return nil, err
		}
	}
	if len(a.Communities) > 0 {
		val := make([]byte, 0, len(a.Communities)*4)
		for _, c := range a.Communities {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(c))
			val = append(val, b[:]...)
		}
		dst, err = appendAttr(dst, flagOptional|flagTransitive, attrCommunities, val)
		if err != nil {
			return nil, err
		}
	}
	if a.MPReach != nil {
		mp := a.MPReach
		val := make([]byte, 0, 64)
		val = append(val, byte(mp.AFI>>8), byte(mp.AFI), byte(mp.SAFI))
		var nh []byte
		if mp.NextHop.IsValid() {
			if mp.NextHop.Is4() {
				a4 := mp.NextHop.As4()
				nh = a4[:]
			} else {
				a16 := mp.NextHop.As16()
				nh = a16[:]
			}
		}
		val = append(val, byte(len(nh)))
		val = append(val, nh...)
		val = append(val, 0) // reserved SNPA count
		val, err = appendNLRI(val, mp.NLRI, opts.addPath(mp.AFI))
		if err != nil {
			return nil, err
		}
		dst, err = appendAttr(dst, flagOptional, attrMPReach, val)
		if err != nil {
			return nil, err
		}
	}
	if a.MPUnreach != nil {
		mp := a.MPUnreach
		val := []byte{byte(mp.AFI >> 8), byte(mp.AFI), byte(mp.SAFI)}
		val, err = appendNLRI(val, mp.NLRI, opts.addPath(mp.AFI))
		if err != nil {
			return nil, err
		}
		dst, err = appendAttr(dst, flagOptional, attrMPUnreach, val)
		if err != nil {
			return nil, err
		}
	}
	if len(a.ExtCommunities) > 0 {
		val := make([]byte, 0, len(a.ExtCommunities)*8)
		for _, e := range a.ExtCommunities {
			val = append(val, e[:]...)
		}
		dst, err = appendAttr(dst, flagOptional|flagTransitive, attrExtCommunities, val)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// parseAttrs decodes the path attribute block of an UPDATE.
func parseAttrs(data []byte, opts *Options) (PathAttrs, error) {
	var a PathAttrs
	for len(data) > 0 {
		if len(data) < 3 {
			return a, ErrTruncated
		}
		flags, typ := data[0], data[1]
		var length int
		if flags&flagExtLen != 0 {
			if len(data) < 4 {
				return a, ErrTruncated
			}
			length = int(binary.BigEndian.Uint16(data[2:4]))
			data = data[4:]
		} else {
			length = int(data[2])
			data = data[3:]
		}
		if len(data) < length {
			return a, ErrTruncated
		}
		val := data[:length]
		data = data[length:]

		switch typ {
		case attrOrigin:
			if length != 1 {
				return a, ErrBadAttrFlags
			}
			a.Origin = Origin(val[0])
		case attrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return a, ErrTruncated
				}
				segType, count := val[0], int(val[1])
				val = val[2:]
				if len(val) < count*4 {
					return a, ErrTruncated
				}
				seg := ASPathSegment{Type: segType, ASNs: make([]uint32, count)}
				for i := 0; i < count; i++ {
					seg.ASNs[i] = binary.BigEndian.Uint32(val[i*4 : i*4+4])
				}
				val = val[count*4:]
				a.ASPath = append(a.ASPath, seg)
			}
		case attrNextHop:
			if length != 4 {
				return a, ErrBadAttrFlags
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
		case attrMED:
			if length != 4 {
				return a, ErrBadAttrFlags
			}
			v := binary.BigEndian.Uint32(val)
			a.MED = &v
		case attrLocalPref:
			if length != 4 {
				return a, ErrBadAttrFlags
			}
			v := binary.BigEndian.Uint32(val)
			a.LocalPref = &v
		case attrAtomicAggregate:
			a.AtomicAggregate = true
		case attrCommunities:
			if length%4 != 0 {
				return a, ErrBadAttrFlags
			}
			for i := 0; i < length; i += 4 {
				a.Communities = append(a.Communities, Community(binary.BigEndian.Uint32(val[i:i+4])))
			}
		case attrExtCommunities:
			if length%8 != 0 {
				return a, ErrBadAttrFlags
			}
			for i := 0; i < length; i += 8 {
				var e ExtCommunity
				copy(e[:], val[i:i+8])
				a.ExtCommunities = append(a.ExtCommunities, e)
			}
		case attrMPReach:
			if length < 5 {
				return a, ErrTruncated
			}
			mp := &MPReach{
				AFI:  AFI(binary.BigEndian.Uint16(val[0:2])),
				SAFI: SAFI(val[2]),
			}
			nhLen := int(val[3])
			if len(val) < 4+nhLen+1 {
				return a, ErrTruncated
			}
			switch nhLen {
			case 0:
			case 4:
				mp.NextHop = netip.AddrFrom4([4]byte(val[4 : 4+4]))
			case 16, 32: // link-local pair: keep the global address
				mp.NextHop = netip.AddrFrom16([16]byte(val[4 : 4+16]))
			default:
				return a, ErrBadAttrFlags
			}
			rest := val[4+nhLen+1:]
			nlri, err := parseNLRI(rest, mp.AFI, opts.addPath(mp.AFI))
			if err != nil {
				return a, err
			}
			mp.NLRI = nlri
			a.MPReach = mp
		case attrMPUnreach:
			if length < 3 {
				return a, ErrTruncated
			}
			mp := &MPUnreach{
				AFI:  AFI(binary.BigEndian.Uint16(val[0:2])),
				SAFI: SAFI(val[2]),
			}
			nlri, err := parseNLRI(val[3:], mp.AFI, opts.addPath(mp.AFI))
			if err != nil {
				return a, err
			}
			mp.NLRI = nlri
			a.MPUnreach = mp
		default:
			// Unknown optional attributes are skipped (and dropped; this
			// route server does not forward unrecognized attrs).
			if flags&flagOptional == 0 {
				return a, fmt.Errorf("bgp: unknown well-known attribute %d", typ)
			}
		}
	}
	return a, nil
}
