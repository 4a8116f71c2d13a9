package bgppipe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"stellar/internal/bgp"
)

// Record is one replayed routing event: a BGP message attributed to a
// peer at a capture timestamp. MRT and RIS-live scanners both produce
// Records, so one replay path (engine.ReplayEvents) serves both.
type Record struct {
	Time   time.Time
	Peer   string // "AS<asn>" when the source names peers only by ASN
	PeerAS uint32
	PeerIP netip.Addr
	Msg    bgp.Message
}

// RecordSource yields replay records in stream order; io.EOF ends the
// stream. MRTScanner and RISScanner implement it.
type RecordSource interface {
	Next() (Record, error)
}

// MRT record types and subtypes (RFC 6396 §4).
const (
	mrtTypeTableDumpV2 = 13
	mrtTypeBGP4MP      = 16
	mrtTypeBGP4MPET    = 17

	bgp4mpMessage    = 1 // 2-octet peer ASNs; skipped (embedded AS_PATHs are 2-octet too)
	bgp4mpMessageAS4 = 4

	tdv2PeerIndexTable = 1
	tdv2RIBIPv4Unicast = 2
	tdv2RIBIPv6Unicast = 4
)

// maxMRTRecord bounds one record's body; RFC 6396 has no limit but a
// fuzzer-supplied length must not drive allocation.
const maxMRTRecord = 1 << 20

// ErrMRTTruncated reports an MRT record cut short.
var ErrMRTTruncated = errors.New("bgppipe: truncated MRT record")

// mrtPeer is one PEER_INDEX_TABLE entry.
type mrtPeer struct {
	as    uint32
	ip    netip.Addr
	bgpID netip.Addr
}

// MRTScanner reads an MRT dump (RFC 6396) record by record, yielding
// the BGP messages it carries:
//
//   - BGP4MP / BGP4MP_ET MESSAGE_AS4 records yield the embedded
//     message verbatim, attributed to the record's peer.
//   - TABLE_DUMP_V2 RIB snapshots yield one synthesized UPDATE per
//     (prefix, peer) RIB entry — replaying a snapshot reconstructs the
//     table exactly as if every peer had announced its routes live.
//
// Records the route server cannot use (state changes, 2-octet-AS
// message records, non-unicast RIBs) are skipped, not errors: real
// collector dumps interleave them freely.
type MRTScanner struct {
	r       io.Reader
	peers   []mrtPeer
	pending []Record // expansion of a multi-entry TABLE_DUMP_V2 record
}

// NewMRTScanner scans the MRT stream r.
func NewMRTScanner(r io.Reader) *MRTScanner {
	return &MRTScanner{r: r}
}

// Next returns the next usable record, io.EOF at end of stream.
func (s *MRTScanner) Next() (Record, error) {
	for {
		if len(s.pending) > 0 {
			rec := s.pending[0]
			s.pending = s.pending[1:]
			return rec, nil
		}
		var hdr [12]byte
		if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return Record{}, ErrMRTTruncated
			}
			return Record{}, err
		}
		ts := binary.BigEndian.Uint32(hdr[0:4])
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > maxMRTRecord {
			return Record{}, fmt.Errorf("bgppipe: MRT record of %d bytes exceeds limit", length)
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(s.r, body); err != nil {
			return Record{}, ErrMRTTruncated
		}
		t := time.Unix(int64(ts), 0).UTC()

		switch typ {
		case mrtTypeBGP4MP, mrtTypeBGP4MPET:
			if typ == mrtTypeBGP4MPET {
				if len(body) < 4 {
					return Record{}, ErrMRTTruncated
				}
				us := binary.BigEndian.Uint32(body[0:4])
				t = t.Add(time.Duration(us) * time.Microsecond)
				body = body[4:]
			}
			if sub != bgp4mpMessageAS4 {
				continue // state changes and 2-octet-AS messages
			}
			rec, err := parseBGP4MPMessageAS4(t, body)
			if err != nil {
				return Record{}, err
			}
			return rec, nil
		case mrtTypeTableDumpV2:
			switch sub {
			case tdv2PeerIndexTable:
				peers, err := parsePeerIndexTable(body)
				if err != nil {
					return Record{}, err
				}
				s.peers = peers
			case tdv2RIBIPv4Unicast:
				recs, err := s.parseRIBEntries(t, body, bgp.AFIIPv4)
				if err != nil {
					return Record{}, err
				}
				s.pending = recs
			case tdv2RIBIPv6Unicast:
				recs, err := s.parseRIBEntries(t, body, bgp.AFIIPv6)
				if err != nil {
					return Record{}, err
				}
				s.pending = recs
			}
		}
	}
}

// parseBGP4MPMessageAS4 decodes a BGP4MP MESSAGE_AS4 body: peer AS,
// local AS, interface index, AFI, both addresses, then the embedded
// BGP message.
func parseBGP4MPMessageAS4(t time.Time, body []byte) (Record, error) {
	if len(body) < 12 {
		return Record{}, ErrMRTTruncated
	}
	peerAS := binary.BigEndian.Uint32(body[0:4])
	afi := binary.BigEndian.Uint16(body[10:12])
	body = body[12:]
	addrLen := 4
	if afi == uint16(bgp.AFIIPv6) {
		addrLen = 16
	}
	if len(body) < 2*addrLen {
		return Record{}, ErrMRTTruncated
	}
	var peerIP netip.Addr
	if addrLen == 4 {
		peerIP = netip.AddrFrom4([4]byte(body[0:4]))
	} else {
		peerIP = netip.AddrFrom16([16]byte(body[0:16]))
	}
	body = body[2*addrLen:]
	msg, _, err := bgp.Unmarshal(body, nil)
	if err != nil {
		return Record{}, fmt.Errorf("bgppipe: embedded BGP message: %w", err)
	}
	return Record{
		Time:   t,
		Peer:   fmt.Sprintf("AS%d", peerAS),
		PeerAS: peerAS,
		PeerIP: peerIP,
		Msg:    msg,
	}, nil
}

// parsePeerIndexTable decodes the TABLE_DUMP_V2 PEER_INDEX_TABLE that
// subsequent RIB records index into.
func parsePeerIndexTable(body []byte) ([]mrtPeer, error) {
	if len(body) < 6 {
		return nil, ErrMRTTruncated
	}
	viewLen := int(binary.BigEndian.Uint16(body[4:6]))
	body = body[6:]
	if len(body) < viewLen+2 {
		return nil, ErrMRTTruncated
	}
	body = body[viewLen:]
	count := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	peers := make([]mrtPeer, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 5 {
			return nil, ErrMRTTruncated
		}
		pt := body[0]
		bgpID := netip.AddrFrom4([4]byte(body[1:5]))
		body = body[5:]
		addrLen, asLen := 4, 2
		if pt&0x01 != 0 {
			addrLen = 16
		}
		if pt&0x02 != 0 {
			asLen = 4
		}
		if len(body) < addrLen+asLen {
			return nil, ErrMRTTruncated
		}
		var ip netip.Addr
		if addrLen == 4 {
			ip = netip.AddrFrom4([4]byte(body[0:4]))
		} else {
			ip = netip.AddrFrom16([16]byte(body[0:16]))
		}
		body = body[addrLen:]
		var as uint32
		if asLen == 2 {
			as = uint32(binary.BigEndian.Uint16(body[0:2]))
		} else {
			as = binary.BigEndian.Uint32(body[0:4])
		}
		body = body[asLen:]
		peers = append(peers, mrtPeer{as: as, ip: ip, bgpID: bgpID})
	}
	return peers, nil
}

// parseRIBEntries expands one RIB_IPVx_UNICAST record into one
// synthesized UPDATE per entry.
func (s *MRTScanner) parseRIBEntries(t time.Time, body []byte, afi bgp.AFI) ([]Record, error) {
	if len(body) < 5 {
		return nil, ErrMRTTruncated
	}
	bits := int(body[4])
	body = body[5:]
	maxBits := 32
	if afi == bgp.AFIIPv6 {
		maxBits = 128
	}
	if bits > maxBits {
		return nil, bgp.ErrBadPrefix
	}
	nBytes := (bits + 7) / 8
	if len(body) < nBytes+2 {
		return nil, ErrMRTTruncated
	}
	var addr netip.Addr
	if afi == bgp.AFIIPv4 {
		var a [4]byte
		copy(a[:], body[:nBytes])
		addr = netip.AddrFrom4(a)
	} else {
		var a [16]byte
		copy(a[:], body[:nBytes])
		addr = netip.AddrFrom16(a)
	}
	prefix := netip.PrefixFrom(addr, bits)
	if prefix != prefix.Masked() {
		return nil, bgp.ErrBadPrefix
	}
	body = body[nBytes:]
	count := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]

	recs := make([]Record, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 8 {
			return nil, ErrMRTTruncated
		}
		peerIdx := int(binary.BigEndian.Uint16(body[0:2]))
		origTime := binary.BigEndian.Uint32(body[2:6])
		attrLen := int(binary.BigEndian.Uint16(body[6:8]))
		body = body[8:]
		if len(body) < attrLen {
			return nil, ErrMRTTruncated
		}
		attrBlock := body[:attrLen]
		body = body[attrLen:]
		if peerIdx >= len(s.peers) {
			return nil, fmt.Errorf("bgppipe: RIB entry references peer %d of %d", peerIdx, len(s.peers))
		}
		peer := s.peers[peerIdx]
		u, err := ribEntryUpdate(attrBlock, prefix, afi)
		if err != nil {
			return nil, err
		}
		et := t
		if origTime != 0 {
			et = time.Unix(int64(origTime), 0).UTC()
		}
		recs = append(recs, Record{
			Time:   et,
			Peer:   fmt.Sprintf("AS%d", peer.as),
			PeerAS: peer.as,
			PeerIP: peer.ip,
			Msg:    u,
		})
	}
	return recs, nil
}

// ribEntryUpdate synthesizes the UPDATE a RIB entry is a snapshot of.
// TABLE_DUMP_V2 stores MP_REACH_NLRI abbreviated — next-hop length and
// next hop only (RFC 6396 §4.3.4) — so that attribute is split off and
// reconstructed around the record's prefix; everything else parses with
// the standard wire decoder.
func ribEntryUpdate(attrBlock []byte, prefix netip.Prefix, afi bgp.AFI) (*bgp.Update, error) {
	std, mpNextHop, err := splitTDV2MPReach(attrBlock)
	if err != nil {
		return nil, err
	}
	attrs, err := bgp.ParseAttrs(std, nil)
	if err != nil {
		return nil, err
	}
	u := &bgp.Update{Attrs: attrs}
	if afi == bgp.AFIIPv4 {
		if mpNextHop.IsValid() && !u.Attrs.NextHop.IsValid() {
			u.Attrs.NextHop = mpNextHop
		}
		u.NLRI = []bgp.PathPrefix{{Prefix: prefix}}
	} else {
		u.Attrs.MPReach = &bgp.MPReach{
			AFI:     bgp.AFIIPv6,
			SAFI:    bgp.SAFIUnicast,
			NextHop: mpNextHop,
			NLRI:    []bgp.PathPrefix{{Prefix: prefix}},
		}
	}
	return u, nil
}

// splitTDV2MPReach walks a raw attribute block, removing any MP_REACH
// attribute (type 14) and returning the remaining block plus the next
// hop decoded from the abbreviated form.
func splitTDV2MPReach(data []byte) (std []byte, nextHop netip.Addr, err error) {
	std = make([]byte, 0, len(data))
	for len(data) > 0 {
		if len(data) < 3 {
			return nil, netip.Addr{}, ErrMRTTruncated
		}
		flags, typ := data[0], data[1]
		hdrLen := 3
		var length int
		if flags&0x10 != 0 { // extended length
			if len(data) < 4 {
				return nil, netip.Addr{}, ErrMRTTruncated
			}
			length = int(binary.BigEndian.Uint16(data[2:4]))
			hdrLen = 4
		} else {
			length = int(data[2])
		}
		if len(data) < hdrLen+length {
			return nil, netip.Addr{}, ErrMRTTruncated
		}
		if typ != 14 {
			std = append(std, data[:hdrLen+length]...)
		} else {
			val := data[hdrLen : hdrLen+length]
			if len(val) < 1 || len(val) < 1+int(val[0]) {
				return nil, netip.Addr{}, ErrMRTTruncated
			}
			switch val[0] {
			case 4:
				nextHop = netip.AddrFrom4([4]byte(val[1:5]))
			case 16, 32: // link-local pair: keep the global address
				nextHop = netip.AddrFrom16([16]byte(val[1:17]))
			}
		}
		data = data[hdrLen+length:]
	}
	return std, nextHop, nil
}

// AppendMRTMessage appends one BGP4MP MESSAGE_AS4 record carrying msg
// to dst — the writer half used to build replay fixtures and fuzz
// corpora from in-memory messages.
func AppendMRTMessage(dst []byte, t time.Time, peerAS, localAS uint32, peerIP, localIP netip.Addr, msg bgp.Message, opts *bgp.Options) ([]byte, error) {
	wire, err := bgp.Marshal(msg, opts)
	if err != nil {
		return nil, err
	}
	if peerIP.Is4() != localIP.Is4() {
		return nil, errors.New("bgppipe: MRT peer and local address families differ")
	}
	afi := bgp.AFIIPv4
	addrLen := 4
	if !peerIP.Is4() {
		afi = bgp.AFIIPv6
		addrLen = 16
	}
	bodyLen := 12 + 2*addrLen + len(wire)

	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(t.Unix()))
	binary.BigEndian.PutUint16(hdr[4:6], mrtTypeBGP4MP)
	binary.BigEndian.PutUint16(hdr[6:8], bgp4mpMessageAS4)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(bodyLen))
	dst = append(dst, hdr[:]...)

	var fixed [12]byte
	binary.BigEndian.PutUint32(fixed[0:4], peerAS)
	binary.BigEndian.PutUint32(fixed[4:8], localAS)
	binary.BigEndian.PutUint16(fixed[10:12], uint16(afi))
	dst = append(dst, fixed[:]...)
	if addrLen == 4 {
		p, l := peerIP.As4(), localIP.As4()
		dst = append(dst, p[:]...)
		dst = append(dst, l[:]...)
	} else {
		p, l := peerIP.As16(), localIP.As16()
		dst = append(dst, p[:]...)
		dst = append(dst, l[:]...)
	}
	return append(dst, wire...), nil
}
