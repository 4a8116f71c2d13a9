package bgppipe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
)

// mrtFixture is a small two-peer capture with best-path competition,
// a withdrawal, and an IPv6 announcement — enough routing churn that a
// wire/direct divergence would change the resulting RIB.
type mrtFixtureRec struct {
	peerAS uint32
	peerIP netip.Addr
	msg    bgp.Message
}

func mrtFixture() []mrtFixtureRec {
	attrs := func(path []uint32, nh string) bgp.PathAttrs {
		return bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
			NextHop: netip.MustParseAddr(nh),
		}
	}
	med := uint32(50)
	a1 := attrs([]uint32{65001}, "80.81.192.10")
	a1.Communities = []bgp.Community{bgp.MakeCommunity(65001, 100)}
	a2 := attrs([]uint32{65002, 65010}, "80.81.192.20")
	a2.MED = &med
	return []mrtFixtureRec{
		{65001, netip.MustParseAddr("80.81.192.10"), &bgp.Update{
			Attrs: a1,
			NLRI: []bgp.PathPrefix{
				{Prefix: netip.MustParsePrefix("203.0.113.0/24")},
				{Prefix: netip.MustParsePrefix("198.51.100.0/24")},
			},
		}},
		{65002, netip.MustParseAddr("80.81.192.20"), &bgp.Update{
			Attrs: a2,
			NLRI:  []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("203.0.113.0/24")}},
		}},
		{65002, netip.MustParseAddr("80.81.192.20"), &bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin: bgp.OriginIGP,
				ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65002}}},
				MPReach: &bgp.MPReach{
					AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
					NextHop: netip.MustParseAddr("2001:db8::20"),
					NLRI:    []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("2001:db8:100::/48")}},
				},
			},
		}},
		{65001, netip.MustParseAddr("80.81.192.10"), &bgp.Update{
			Withdrawn: []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("198.51.100.0/24")}},
		}},
		{65001, netip.MustParseAddr("80.81.192.10"), &bgp.Keepalive{}},
	}
}

func mrtFixtureDump(t testing.TB) []byte {
	t.Helper()
	localIP := netip.MustParseAddr("80.81.192.1")
	base := time.Unix(1700000000, 0)
	var dump []byte
	var err error
	for i, r := range mrtFixture() {
		dump, err = AppendMRTMessage(dump, base.Add(time.Duration(i)*time.Second),
			r.peerAS, 6695, r.peerIP, localIP, r.msg, nil)
		if err != nil {
			t.Fatalf("AppendMRTMessage[%d]: %v", i, err)
		}
	}
	return dump
}

// TestMRTScannerRoundtrip writes messages with AppendMRTMessage and
// reads them back, checking attribution and payload survive the trip.
func TestMRTScannerRoundtrip(t *testing.T) {
	recs := mrtFixture()
	sc := NewMRTScanner(bytes.NewReader(mrtFixtureDump(t)))
	for i, want := range recs {
		got, err := sc.Next()
		if err != nil {
			t.Fatalf("Next[%d]: %v", i, err)
		}
		if got.PeerAS != want.peerAS || got.PeerIP != want.peerIP {
			t.Fatalf("record %d attribution: %+v", i, got)
		}
		if got.Peer != fmt.Sprintf("AS%d", want.peerAS) {
			t.Fatalf("record %d peer name: %q", i, got.Peer)
		}
		if got.Time != time.Unix(1700000000+int64(i), 0).UTC() {
			t.Fatalf("record %d time: %v", i, got.Time)
		}
		wantWire, err := bgp.Marshal(want.msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotWire, err := bgp.Marshal(got.Msg, nil)
		if err != nil {
			t.Fatalf("record %d remarshal: %v", i, err)
		}
		if !bytes.Equal(wantWire, gotWire) {
			t.Fatalf("record %d payload changed on the wire trip:\n got %x\nwant %x", i, gotWire, wantWire)
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("trailing Next: %v, want io.EOF", err)
	}
}

// TestMRTScannerSkipsRIBSnapshots pins the scanner's contract that
// BGP4MP is the one format replay reads: a TABLE_DUMP_V2 peer index
// table and RIB record between two BGP4MP records are skipped like any
// other record type, so the scanner yields exactly the two messages.
func TestMRTScannerSkipsRIBSnapshots(t *testing.T) {
	const (
		tableDump2     = 13 // MRT type TABLE_DUMP_V2 (RFC 6396 §4.3)
		peerIndexTable = 1
		ribIPv4Unicast = 2
	)
	record := func(dst []byte, typ, sub uint16, body []byte) []byte {
		dst = binary.BigEndian.AppendUint32(dst, 1700000000)
		dst = binary.BigEndian.AppendUint16(dst, typ)
		dst = binary.BigEndian.AppendUint16(dst, sub)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
		return append(dst, body...)
	}
	// PEER_INDEX_TABLE: collector ID, empty view name, one peer
	// (4-octet AS, IPv4).
	peers := []byte{80, 81, 192, 1, 0, 0, 0, 1, 0x02, 80, 81, 192, 30, 80, 81, 192, 30}
	peers = binary.BigEndian.AppendUint32(peers, 65003)
	attrs := bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65003}}},
		NextHop: netip.MustParseAddr("80.81.192.30"),
	}
	attrWire, err := attrs.MarshalAttrs(nil)
	if err != nil {
		t.Fatal(err)
	}
	// RIB_IPV4_UNICAST: sequence, 192.0.2.0/24, one entry from peer 0.
	rib := []byte{0, 0, 0, 0, 24, 192, 0, 2, 0, 1, 0, 0}
	rib = binary.BigEndian.AppendUint32(rib, 1700000000)
	rib = binary.BigEndian.AppendUint16(rib, uint16(len(attrWire)))
	rib = append(rib, attrWire...)

	fx := mrtFixture()
	bgp4mp := func(dst []byte, r mrtFixtureRec) []byte {
		out, err := AppendMRTMessage(dst, time.Unix(1700000000, 0), r.peerAS, 6695,
			r.peerIP, netip.MustParseAddr("80.81.192.1"), r.msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	dump := bgp4mp(nil, fx[0])
	dump = record(dump, tableDump2, peerIndexTable, peers)
	dump = record(dump, tableDump2, ribIPv4Unicast, rib)
	dump = bgp4mp(dump, fx[1])

	sc := NewMRTScanner(bytes.NewReader(dump))
	var got []uint32
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, rec.PeerAS)
	}
	if want := []uint32{65001, 65002}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scanner yielded records from peers %v, want the two BGP4MP records %v", got, want)
	}
}

// ribDump renders a route server's RIB canonically: every path key in
// sorted order with its peer AS, best-path marker, and the marshaled
// attribute bytes. Byte-identical dumps mean identical routing state.
func ribDump(t testing.TB, rs *routeserver.RouteServer) string {
	t.Helper()
	snap := rs.Table().Snapshot()
	keys := make([]rib.PathKey, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var b strings.Builder
	for _, k := range keys {
		p := snap[k]
		best := rs.Table().Best(k.Prefix)
		wire, err := p.Attrs.MarshalAttrs(nil)
		if err != nil {
			t.Fatalf("marshal attrs for %v: %v", k, err)
		}
		fmt.Fprintf(&b, "%v as%d best=%v attrs=%x\n",
			k, p.PeerAS, best != nil && best.Key == k, wire)
	}
	return b.String()
}

// recordStage is a test-local RX producer: it announces each record's
// peer on first sight, then sends the record's message, as a member's
// session on a listen stage would.
type recordStage struct {
	src  RecordSource
	pipe *Pipe
}

func (r *recordStage) Name() string         { return "records" }
func (r *recordStage) Attach(p *Pipe) error { r.pipe = p; return nil }
func (r *recordStage) Stop() error          { return nil }
func (r *recordStage) Run() error {
	seen := make(map[string]bool)
	for {
		rec, err := r.src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !seen[rec.Peer] {
			seen[rec.Peer] = true
			if err := r.pipe.Send(DirRX, &Msg{Peer: rec.Peer, PeerAS: rec.PeerAS, PeerIP: rec.PeerIP, Event: EventPeerUp}); err != nil {
				return err
			}
		}
		if err := r.pipe.Send(DirRX, &Msg{Peer: rec.Peer, PeerAS: rec.PeerAS, PeerIP: rec.PeerIP, Time: rec.Time, BGP: rec.Msg}); err != nil {
			return err
		}
	}
}

// TestMRTReplayEquivalence pins that the wire pipeline applies a stream
// of UPDATEs exactly as the route server's direct API does: a capture
// fed through the pipe (MRTScanner -> RX line -> RSFeed) produces a
// byte-identical RIB — same paths, same best-path selection, same
// marshaled attributes — as handing the route server the same updates
// directly through HandleUpdateBatch.
func TestMRTReplayEquivalence(t *testing.T) {
	newRS := func() *routeserver.RouteServer {
		return routeserver.New(routeserver.Config{
			ASN:              6695,
			BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
		})
	}

	// Wire path: the dump's records ride the pipe.
	rsWire := newRS()
	pipe := New(Options{})
	pipe.Attach(&recordStage{src: NewMRTScanner(bytes.NewReader(mrtFixtureDump(t)))})
	pipe.Attach(&RSFeed{RS: rsWire})
	pipe.Start()
	if err := pipe.Wait(); err != nil {
		t.Fatalf("record pipe: %v", err)
	}

	// Direct path: same updates straight into HandleUpdateBatch.
	rsDirect := newRS()
	for _, r := range mrtFixture() {
		peer := fmt.Sprintf("AS%d", r.peerAS)
		u, ok := r.msg.(*bgp.Update)
		if !ok {
			continue
		}
		err := rsDirect.AddPeer(routeserver.PeerConfig{Name: peer, ASN: r.peerAS})
		if err != nil && err != routeserver.ErrDuplicatePeer {
			t.Fatal(err)
		}
		if _, _, err := rsDirect.HandleUpdateBatch(peer, u); err != nil {
			t.Fatal(err)
		}
	}

	wire, direct := ribDump(t, rsWire), ribDump(t, rsDirect)
	if wire != direct {
		t.Fatalf("wire path diverged from direct feed:\n--- wire ---\n%s--- direct ---\n%s", wire, direct)
	}
	if wire == "" {
		t.Fatal("empty RIB: the fixture applied nothing")
	}
}

// FuzzMRTScanner throws mutated MRT bytes at the scanner: it must never
// panic, and every record it does yield must carry a remarshalable
// message.
func FuzzMRTScanner(f *testing.F) {
	f.Add(mrtFixtureDump(f))
	dump := mrtFixtureDump(f)
	f.Add(dump[:len(dump)/2]) // truncated mid-record
	f.Add(dump[:13])          // truncated header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewMRTScanner(bytes.NewReader(data))
		for i := 0; i < 1<<16; i++ {
			rec, err := sc.Next()
			if err != nil {
				return
			}
			if rec.Msg == nil {
				t.Fatal("record with nil message")
			}
			if _, err := bgp.Marshal(rec.Msg, nil); err != nil {
				t.Fatalf("scanner yielded unmarshalable message: %v", err)
			}
		}
	})
}
