package netpkt

import (
	"net/netip"
	"testing"
)

var (
	macA = MustParseMAC("02:00:00:00:00:0a")
	macB = MustParseMAC("02:00:00:00:00:0b")
	ip1  = netip.MustParseAddr("100.10.10.10")
	ip2  = netip.MustParseAddr("203.0.113.7")
	ip6a = netip.MustParseAddr("2001:db8::1")
)

func TestParseMAC(t *testing.T) {
	m, err := ParseMAC("aa:bb:cc:dd:ee:ff")
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "aa:bb:cc:dd:ee:ff" {
		t.Fatalf("roundtrip: %s", m)
	}
	for _, bad := range []string{"", "aa:bb:cc:dd:ee", "aa-bb-cc-dd-ee-ff", "zz:bb:cc:dd:ee:ff", "aa:bb:cc:dd:ee:f"} {
		if _, err := ParseMAC(bad); err == nil {
			t.Errorf("ParseMAC(%q) should fail", bad)
		}
	}
}

func TestFlowKey(t *testing.T) {
	k := FlowKey{SrcMAC: macA, Src: ip1, Dst: ip2, Proto: ProtoUDP, SrcPort: 11211, DstPort: 80}
	// FlowKey must be usable as a map key.
	m := map[FlowKey]int{k: 1}
	if m[FlowKey{SrcMAC: macA, Src: ip1, Dst: ip2, Proto: ProtoUDP, SrcPort: 11211, DstPort: 80}] != 1 {
		t.Fatal("map lookup failed")
	}
	if got, want := k.String(), "UDP 100.10.10.10:11211 -> 203.0.113.7:80"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestIPProtoStrings(t *testing.T) {
	if IPProto(99).String() != "IPProto(99)" {
		t.Fatal("unknown IPProto string")
	}
	if ProtoUDP.String() != "UDP" || ProtoTCP.String() != "TCP" || ProtoICMP.String() != "ICMP" {
		t.Fatal("IPProto strings")
	}
}

func TestFlowKeyHash(t *testing.T) {
	base := FlowKey{SrcMAC: macA, Src: ip1, Dst: ip2, Proto: ProtoUDP, SrcPort: 123, DstPort: 443}
	h := base.Hash()
	if h == 0 {
		t.Fatal("Hash returned the 0 sentinel")
	}
	if base.Hash() != h {
		t.Fatal("Hash not deterministic")
	}
	// Every field must perturb the digest.
	mutants := []FlowKey{base, base, base, base, base, base, {}}
	mutants[0].SrcMAC = macB
	mutants[1].Src = ip6a
	mutants[2].Dst = ip1
	mutants[3].Proto = ProtoTCP
	mutants[4].SrcPort = 124
	mutants[5].DstPort = 80
	seen := map[uint64]bool{h: true}
	for i, m := range mutants {
		mh := m.Hash()
		if mh == 0 {
			t.Fatalf("mutant %d hashed to 0", i)
		}
		if seen[mh] {
			t.Fatalf("mutant %d collided: %#x", i, mh)
		}
		seen[mh] = true
	}
	// v4 and its 4-in-6 form are distinct flows (netip treats them as
	// different addresses), so their hashes must differ too.
	in6 := base
	in6.Src = netip.AddrFrom16(ip1.As16())
	if in6.Hash() == h {
		t.Fatal("v4 and 4-in-6 source hashed identically")
	}
}

func TestFlowKeyHashSpread(t *testing.T) {
	// Sequential port-only variation must not collapse buckets: all
	// hashes distinct over a realistic flow population.
	seen := make(map[uint64]bool)
	for i := 0; i < 4096; i++ {
		k := FlowKey{SrcMAC: macA, Src: ip1, Dst: ip2, Proto: ProtoUDP,
			SrcPort: uint16(i), DstPort: 443}
		h := k.Hash()
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}
