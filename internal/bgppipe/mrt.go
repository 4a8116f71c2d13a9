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
// peer at a capture timestamp, as MRTScanner yields it to the one
// replay path (engine.ReplayEvents).
type Record struct {
	Time   time.Time
	Peer   string // "AS<asn>" when the source names peers only by ASN
	PeerAS uint32
	PeerIP netip.Addr
	Msg    bgp.Message
}

// RecordSource yields replay records in stream order; io.EOF ends the
// stream. MRTScanner implements it, and faults.(*Injector).FilterSource
// wraps one with wire faults.
type RecordSource interface {
	Next() (Record, error)
}

// MRT record types and subtypes (RFC 6396 §4).
const (
	mrtTypeBGP4MP   = 16
	mrtTypeBGP4MPET = 17

	bgp4mpMessage    = 1 // 2-octet peer ASNs; skipped (embedded AS_PATHs are 2-octet too)
	bgp4mpMessageAS4 = 4
)

// maxMRTRecord bounds one record's body; RFC 6396 has no limit but a
// fuzzer-supplied length must not drive allocation.
const maxMRTRecord = 1 << 20

// ErrMRTTruncated reports an MRT record cut short.
var ErrMRTTruncated = errors.New("bgppipe: truncated MRT record")

// MRTScanner reads an MRT dump (RFC 6396) record by record, yielding
// the BGP messages it carries: each BGP4MP / BGP4MP_ET MESSAGE_AS4
// record yields its embedded message verbatim, attributed to the
// record's peer — the format AppendMRTMessage writes.
//
// Every other record (state changes, 2-octet-AS message records,
// TABLE_DUMP_V2 RIB snapshots and any other type) is skipped, not an
// error: real collector dumps interleave them freely.
type MRTScanner struct {
	r io.Reader
}

// NewMRTScanner scans the MRT stream r.
func NewMRTScanner(r io.Reader) *MRTScanner {
	return &MRTScanner{r: r}
}

// Next returns the next usable record, io.EOF at end of stream.
func (s *MRTScanner) Next() (Record, error) {
	for {
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

		if typ != mrtTypeBGP4MP && typ != mrtTypeBGP4MPET {
			continue
		}
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
		return parseBGP4MPMessageAS4(t, body)
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
