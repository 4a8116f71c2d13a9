package bgp

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	rsID   = netip.MustParseAddr("80.81.192.1")
	nhAddr = netip.MustParseAddr("80.81.192.10")
	pfx24  = netip.MustParsePrefix("100.10.10.0/24")
	pfx32  = netip.MustParsePrefix("100.10.10.10/32")
	pfx6   = netip.MustParsePrefix("2001:db8:100::/48")
)

func roundtrip(t *testing.T, m Message, opts *Options) Message {
	t.Helper()
	wire, err := Marshal(m, opts)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, n, err := Unmarshal(wire, opts)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	return got
}

func TestKeepaliveRoundtrip(t *testing.T) {
	got := roundtrip(t, &Keepalive{}, nil)
	if got.Type() != MsgKeepalive {
		t.Fatalf("type = %v", got.Type())
	}
}

func TestOpenRoundtrip(t *testing.T) {
	o := NewOpen(64512, 90, rsID)
	got := roundtrip(t, o, nil).(*Open)
	if got.Version != 4 || got.AS != 64512 || got.HoldTime != 90 || got.BGPID != rsID {
		t.Fatalf("open mismatch: %+v", got)
	}
	if len(got.Capabilities) != 3 {
		t.Fatalf("capabilities = %d, want 3", len(got.Capabilities))
	}
}

func TestOpenFourOctetAS(t *testing.T) {
	// ASN above 16 bits must roundtrip via the capability.
	o := NewOpen(4200000001, 180, rsID)
	wire, err := Marshal(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The 2-octet field must carry AS_TRANS.
	if as2 := uint16(wire[headerLen+1])<<8 | uint16(wire[headerLen+2]); as2 != ASTrans {
		t.Fatalf("2-octet AS field = %d, want AS_TRANS", as2)
	}
	got, _, err := Unmarshal(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*Open).AS != 4200000001 {
		t.Fatalf("AS = %d, want 4200000001", got.(*Open).AS)
	}
}

func TestOpenAddPathCapability(t *testing.T) {
	o := NewOpen(64512, 90, rsID)
	o.Capabilities = append(o.Capabilities, CapAddPath(
		AddPathTuple{AFI: AFIIPv4, SAFI: SAFIUnicast, Mode: AddPathSendReceive},
		AddPathTuple{AFI: AFIIPv6, SAFI: SAFIUnicast, Mode: AddPathSend},
	))
	got := roundtrip(t, o, nil).(*Open)
	if !got.HasAddPath(AFIIPv4, SAFIUnicast, AddPathReceive) {
		t.Fatal("missing v4 receive")
	}
	if !got.HasAddPath(AFIIPv4, SAFIUnicast, AddPathSend) {
		t.Fatal("missing v4 send")
	}
	if got.HasAddPath(AFIIPv6, SAFIUnicast, AddPathReceive) {
		t.Fatal("v6 should be send-only")
	}
}

func TestOpenRejectsNonIPv4ID(t *testing.T) {
	o := NewOpen(64512, 90, netip.MustParseAddr("2001:db8::1"))
	if _, err := Marshal(o, nil); err == nil {
		t.Fatal("want error for IPv6 BGP ID")
	}
}

func attrsForTest() PathAttrs {
	med := uint32(50)
	lp := uint32(100)
	return PathAttrs{
		Origin:    OriginIGP,
		ASPath:    []ASPathSegment{{Type: ASSequence, ASNs: []uint32{64512, 64513}}},
		NextHop:   nhAddr,
		MED:       &med,
		LocalPref: &lp,
		Communities: []Community{
			MakeCommunity(64512, 123),
			CommunityBlackhole,
		},
		ExtCommunities: []ExtCommunity{
			MakeExtCommunity(ExtTypeExperimental, ExtSubTypeAdvBlackhole, [6]byte{0, 2, 0, 123, 0, 1}),
		},
	}
}

func TestUpdateRoundtrip(t *testing.T) {
	u := &Update{
		Withdrawn: []PathPrefix{{Prefix: netip.MustParsePrefix("198.51.100.0/24")}},
		Attrs:     attrsForTest(),
		NLRI:      []PathPrefix{{Prefix: pfx24}, {Prefix: pfx32}},
	}
	got := roundtrip(t, u, nil).(*Update)
	if !reflect.DeepEqual(got.NLRI, u.NLRI) {
		t.Fatalf("NLRI: got %v want %v", got.NLRI, u.NLRI)
	}
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
		t.Fatalf("Withdrawn: got %v want %v", got.Withdrawn, u.Withdrawn)
	}
	a := got.Attrs
	if a.Origin != OriginIGP || a.NextHop != nhAddr {
		t.Fatalf("attrs: %+v", a)
	}
	if *a.MED != 50 || *a.LocalPref != 100 {
		t.Fatalf("med/lp: %v %v", *a.MED, *a.LocalPref)
	}
	if !a.HasCommunity(CommunityBlackhole) || !a.HasCommunity(MakeCommunity(64512, 123)) {
		t.Fatalf("communities: %v", a.Communities)
	}
	if len(a.ExtCommunities) != 1 || a.ExtCommunities[0].SubType() != ExtSubTypeAdvBlackhole {
		t.Fatalf("ext communities: %v", a.ExtCommunities)
	}
}

func TestUpdateAddPathRoundtrip(t *testing.T) {
	opts := &Options{AddPathIPv4: true}
	u := &Update{
		Attrs: attrsForTest(),
		NLRI: []PathPrefix{
			{Prefix: pfx32, PathID: 1},
			{Prefix: pfx32, PathID: 2}, // same prefix, two paths
		},
	}
	got := roundtrip(t, u, opts).(*Update)
	if len(got.NLRI) != 2 || got.NLRI[0].PathID != 1 || got.NLRI[1].PathID != 2 {
		t.Fatalf("NLRI: %v", got.NLRI)
	}
	// Without ADD-PATH decode options, the same bytes must NOT parse into
	// the same prefixes (path IDs would be consumed as prefix bytes).
	wire, _ := Marshal(u, opts)
	if plain, _, err := Unmarshal(wire, nil); err == nil {
		pu := plain.(*Update)
		if reflect.DeepEqual(pu.NLRI, got.NLRI) {
			t.Fatal("ADD-PATH wire decoded identically without the option")
		}
	}
}

func TestUpdateIPv6MPReach(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			Origin: OriginIGP,
			ASPath: []ASPathSegment{{Type: ASSequence, ASNs: []uint32{64512}}},
			MPReach: &MPReach{
				AFI:     AFIIPv6,
				SAFI:    SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []PathPrefix{{Prefix: pfx6}},
			},
		},
	}
	got := roundtrip(t, u, nil).(*Update)
	mp := got.Attrs.MPReach
	if mp == nil || mp.AFI != AFIIPv6 || mp.NextHop != netip.MustParseAddr("2001:db8::1") {
		t.Fatalf("MPReach: %+v", mp)
	}
	if len(mp.NLRI) != 1 || mp.NLRI[0].Prefix != pfx6 {
		t.Fatalf("MPReach NLRI: %v", mp.NLRI)
	}
	if len(got.AllAnnounced()) != 1 {
		t.Fatalf("AllAnnounced: %v", got.AllAnnounced())
	}
}

func TestUpdateIPv6Withdraw(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			MPUnreach: &MPUnreach{AFI: AFIIPv6, SAFI: SAFIUnicast,
				NLRI: []PathPrefix{{Prefix: pfx6}}},
		},
	}
	got := roundtrip(t, u, nil).(*Update)
	if got.Attrs.MPUnreach == nil || len(got.Attrs.MPUnreach.NLRI) != 1 {
		t.Fatalf("MPUnreach: %+v", got.Attrs.MPUnreach)
	}
	if len(got.AllWithdrawn()) != 1 {
		t.Fatalf("AllWithdrawn: %v", got.AllWithdrawn())
	}
}

// TestAllPrefixesShareSingleFamily pins that AllAnnounced and
// AllWithdrawn hand back a single-family UPDATE's own prefixes without
// allocating, that a caller appending to the result cannot write into
// the UPDATE, and that an UPDATE carrying both families still gets both.
func TestAllPrefixesShareSingleFamily(t *testing.T) {
	v4 := make([]PathPrefix, 1, 4) // spare capacity an append could reach
	v4[0] = PathPrefix{Prefix: pfx24}
	u := &Update{Withdrawn: v4, NLRI: v4}
	if n := testing.AllocsPerRun(100, func() {
		_ = u.AllAnnounced()
		_ = u.AllWithdrawn()
	}); n != 0 {
		t.Fatalf("single-family AllAnnounced+AllWithdrawn: %v allocs, want 0", n)
	}
	for name, all := range map[string]func() []PathPrefix{"AllAnnounced": u.AllAnnounced, "AllWithdrawn": u.AllWithdrawn} {
		got := all()
		if len(got) != 1 || got[0].Prefix != pfx24 {
			t.Fatalf("%s: %v", name, got)
		}
		_ = append(got, PathPrefix{Prefix: pfx6})
		if spare := v4[:2][1]; spare != (PathPrefix{}) {
			t.Fatalf("%s: appending to the result wrote %v into the UPDATE", name, spare)
		}
	}

	u6 := &Update{Attrs: PathAttrs{MPReach: &MPReach{NLRI: []PathPrefix{{Prefix: pfx6}}}}}
	if got := u6.AllAnnounced(); len(got) != 1 || got[0].Prefix != pfx6 {
		t.Fatalf("IPv6-only AllAnnounced: %v", got)
	}
	u6.NLRI = v4
	if got := u6.AllAnnounced(); len(got) != 2 || got[0].Prefix != pfx24 || got[1].Prefix != pfx6 {
		t.Fatalf("dual-family AllAnnounced: %v", got)
	}
	if spare := v4[:2][1]; spare != (PathPrefix{}) {
		t.Fatalf("dual-family AllAnnounced wrote %v into the UPDATE", spare)
	}
	if got := (&Update{}).AllWithdrawn(); got != nil {
		t.Fatalf("empty AllWithdrawn: %v, want nil", got)
	}
}

func TestWithdrawOnlyUpdateHasNoAttrs(t *testing.T) {
	u := &Update{Withdrawn: []PathPrefix{{Prefix: pfx24}}}
	wire, err := Marshal(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Unmarshal(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	gu := got.(*Update)
	if len(gu.Withdrawn) != 1 || len(gu.NLRI) != 0 || len(gu.Attrs.ASPath) != 0 {
		t.Fatalf("withdraw-only: %+v", gu)
	}
}

func TestNotificationRoundtrip(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: CeaseAdminShutdown, Data: []byte("bye")}
	got := roundtrip(t, n, nil).(*Notification)
	if got.Code != NotifCease || got.Subcode != CeaseAdminShutdown || string(got.Data) != "bye" {
		t.Fatalf("notification: %+v", got)
	}
	if got.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	wire, _ := Marshal(&Keepalive{}, nil)

	bad := append([]byte(nil), wire...)
	bad[0] = 0
	if _, _, err := Unmarshal(bad, nil); err != ErrBadMarker {
		t.Fatalf("marker: %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[16], bad[17] = 0xff, 0xff
	if _, _, err := Unmarshal(bad, nil); err != ErrBadLength {
		t.Fatalf("length: %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[18] = 99
	if _, _, err := Unmarshal(bad, nil); err != ErrBadType {
		t.Fatalf("type: %v", err)
	}

	if _, _, err := Unmarshal(wire[:10], nil); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
}

func TestUnmarshalFuzzNoPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _, _ = Unmarshal(data, nil)
		_, _, _ = Unmarshal(data, &Options{AddPathIPv4: true, AddPathIPv6: true})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateTruncationsError(t *testing.T) {
	u := &Update{Attrs: attrsForTest(), NLRI: []PathPrefix{{Prefix: pfx24}}}
	wire, err := Marshal(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any truncation of the body must produce an error, never a panic.
	for i := headerLen; i < len(wire); i++ {
		trunc := append([]byte(nil), wire[:i]...)
		if i >= 18 {
			// Fix up the length field so the header parses.
			trunc[16], trunc[17] = byte(i>>8), byte(i)
		}
		if _, _, err := Unmarshal(trunc, nil); err == nil && i != len(wire) {
			// Some truncations may still form a valid shorter message
			// (e.g. cutting trailing NLRI at an element boundary); those
			// must reparse consistently rather than crash.
			continue
		}
	}
}

func TestReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		NewOpen(64512, 90, rsID),
		&Keepalive{},
		&Update{Attrs: attrsForTest(), NLRI: []PathPrefix{{Prefix: pfx32}}},
		&Notification{Code: NotifCease, Subcode: CeaseAdminReset},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf, nil)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("msg %d: type %v want %v", i, got.Type(), want.Type())
		}
	}
}

func TestCommunityStringParse(t *testing.T) {
	cases := []struct {
		c Community
		s string
	}{
		{MakeCommunity(64512, 666), "64512:666"},
		{CommunityBlackhole, "blackhole"},
		{CommunityNoExport, "no-export"},
		{CommunityNoAdvertise, "no-advertise"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.s {
			t.Errorf("String(%x) = %q, want %q", uint32(c.c), got, c.s)
		}
		parsed, err := ParseCommunity(c.s)
		if err != nil || parsed != c.c {
			t.Errorf("ParseCommunity(%q) = %v, %v", c.s, parsed, err)
		}
	}
	for _, bad := range []string{"", "1", "a:b", "70000:1", "1:70000", "1:2:3"} {
		if _, err := ParseCommunity(bad); err == nil {
			t.Errorf("ParseCommunity(%q) should fail", bad)
		}
	}
}

func TestCommunityHalves(t *testing.T) {
	c := MakeCommunity(64512, 666)
	if c.ASN() != 64512 || c.Value() != 666 {
		t.Fatalf("halves: %d %d", c.ASN(), c.Value())
	}
	// RFC 7999 value check: 65535:666.
	if CommunityBlackhole.ASN() != 65535 || CommunityBlackhole.Value() != 666 {
		t.Fatal("BLACKHOLE community is not 65535:666")
	}
}

func TestCommunityRoundtripProperty(t *testing.T) {
	f := func(asn, val uint16) bool {
		c := MakeCommunity(asn, val)
		if c.ASN() != asn || c.Value() != val {
			return false
		}
		// Well-known communities stringify to names; skip those.
		switch c {
		case CommunityBlackhole, CommunityNoExport, CommunityNoAdvertise:
			return true
		}
		parsed, err := ParseCommunity(c.String())
		return err == nil && parsed == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtCommunity(t *testing.T) {
	e := MakeExtCommunity(ExtTypeExperimental, ExtSubTypeAdvBlackhole, [6]byte{1, 2, 3, 4, 5, 6})
	if e.Type() != ExtTypeExperimental || e.SubType() != ExtSubTypeAdvBlackhole {
		t.Fatalf("type/subtype: %v", e)
	}
	if e.Value() != [6]byte{1, 2, 3, 4, 5, 6} {
		t.Fatalf("value: %v", e.Value())
	}
	if !e.IsTransitive() {
		t.Fatal("0x80 type should be transitive")
	}
	nt := MakeExtCommunity(0x40, 0, [6]byte{})
	if nt.IsTransitive() {
		t.Fatal("0x40 type should be non-transitive")
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPathAttrsHelpers(t *testing.T) {
	a := attrsForTest()
	if a.OriginAS() != 64513 {
		t.Fatalf("OriginAS = %d", a.OriginAS())
	}
	if a.PathLen() != 2 {
		t.Fatalf("PathLen = %d", a.PathLen())
	}
	a.PrependAS(65000)
	if a.ASPath[0].ASNs[0] != 65000 || a.PathLen() != 3 {
		t.Fatalf("PrependAS: %+v", a.ASPath)
	}
	// AS_SET counts as one.
	a.ASPath = append(a.ASPath, ASPathSegment{Type: ASSet, ASNs: []uint32{1, 2, 3}})
	if a.PathLen() != 4 {
		t.Fatalf("PathLen with set = %d", a.PathLen())
	}
	// AddCommunity dedupes.
	n := len(a.Communities)
	a.AddCommunity(CommunityBlackhole)
	if len(a.Communities) != n {
		t.Fatal("AddCommunity duplicated")
	}
	a.AddCommunity(MakeCommunity(1, 1))
	if len(a.Communities) != n+1 {
		t.Fatal("AddCommunity did not append")
	}
}

func TestPathAttrsClone(t *testing.T) {
	a := attrsForTest()
	b := a.Clone()
	b.ASPath[0].ASNs[0] = 1
	b.Communities[0] = 0
	*b.MED = 999
	if a.ASPath[0].ASNs[0] == 1 || a.Communities[0] == 0 || *a.MED == 999 {
		t.Fatal("Clone shares storage")
	}
}

func TestPrependASEmptyPath(t *testing.T) {
	var a PathAttrs
	a.PrependAS(42)
	if a.PathLen() != 1 || a.OriginAS() != 42 {
		t.Fatalf("prepend on empty: %+v", a.ASPath)
	}
}

func TestParseNLRIRejectsHostBitsSet(t *testing.T) {
	// /24 prefix with a non-zero 4th byte beyond the mask is invalid.
	data := []byte{24, 100, 10, 10}
	if _, err := parseNLRI(data, AFIIPv4, false); err != nil {
		t.Fatalf("valid /24 rejected: %v", err)
	}
	bad := []byte{20, 100, 10, 0xff} // /20 but bits set past bit 20
	if _, err := parseNLRI(bad, AFIIPv4, false); err != ErrBadPrefix {
		t.Fatalf("want ErrBadPrefix, got %v", err)
	}
	tooLong := []byte{33, 1, 2, 3, 4, 5}
	if _, err := parseNLRI(tooLong, AFIIPv4, false); err != ErrBadPrefix {
		t.Fatalf("/33: want ErrBadPrefix, got %v", err)
	}
}

func TestNLRIRoundtripProperty(t *testing.T) {
	f := func(a, b, c, d byte, bitsRaw uint8, pathID uint32, withPath bool) bool {
		bits := int(bitsRaw) % 33
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		pfx := netip.PrefixFrom(addr, bits).Masked()
		pp := PathPrefix{Prefix: pfx, PathID: pathID}
		if !withPath {
			pp.PathID = 0
		}
		enc, err := appendNLRI(nil, []PathPrefix{pp}, withPath)
		if err != nil {
			return false
		}
		dec, err := parseNLRI(enc, AFIIPv4, withPath)
		if err != nil || len(dec) != 1 {
			return false
		}
		return dec[0] == pp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || OriginEGP.String() != "EGP" || OriginIncomplete.String() != "Incomplete" {
		t.Fatal("origin strings")
	}
}

func TestUpdateString(t *testing.T) {
	u := &Update{Attrs: attrsForTest(), NLRI: []PathPrefix{{Prefix: pfx32}},
		Withdrawn: []PathPrefix{{Prefix: pfx24}}}
	s := u.String()
	if s == "" || !bytes.Contains([]byte(s), []byte("announce")) {
		t.Fatalf("String: %q", s)
	}
}

func TestMessageTypeString(t *testing.T) {
	for _, c := range []struct {
		t MessageType
		s string
	}{{MsgOpen, "OPEN"}, {MsgUpdate, "UPDATE"}, {MsgNotification, "NOTIFICATION"}, {MsgKeepalive, "KEEPALIVE"}} {
		if c.t.String() != c.s {
			t.Errorf("%v != %v", c.t.String(), c.s)
		}
	}
}

func BenchmarkMarshalUpdate(b *testing.B) {
	u := &Update{Attrs: attrsForTest(), NLRI: []PathPrefix{{Prefix: pfx32}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(u, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalUpdate(b *testing.B) {
	u := &Update{Attrs: attrsForTest(), NLRI: []PathPrefix{{Prefix: pfx32}}}
	wire, err := Marshal(u, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Unmarshal(wire, nil); err != nil {
			b.Fatal(err)
		}
	}
}
