package netpkt

import (
	"net/netip"
	"testing"
)

var (
	macA = MustParseMAC("02:00:00:00:00:0a")
	ip1  = netip.MustParseAddr("100.10.10.10")
	ip2  = netip.MustParseAddr("203.0.113.7")
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

// TestMACKeyLossless pins MAC.Key as a lossless packing: every octet
// lands in its own byte of the key, so distinct MACs give distinct keys
// and the MAC can be read back from its key.
func TestMACKeyLossless(t *testing.T) {
	if got, want := MustParseMAC("aa:bb:cc:dd:ee:ff").Key(), uint64(0xaabbccddeeff); got != want {
		t.Fatalf("Key = %#x, want %#x", got, want)
	}
	seen := make(map[uint64]MAC)
	check := func(m MAC) {
		t.Helper()
		k := m.Key()
		if k>>48 != 0 {
			t.Fatalf("%s: key %#x wider than 48 bits", m, k)
		}
		if prev, dup := seen[k]; dup && prev != m {
			t.Fatalf("%s and %s share key %#x", prev, m, k)
		}
		seen[k] = m
		var back MAC
		for i := range back {
			back[i] = byte(k >> (40 - 8*i))
		}
		if back != m {
			t.Fatalf("%s: key %#x unpacks to %s", m, k, back)
		}
	}
	// Every value of every octet, alone and next to its neighbours'
	// extremes, so a shift that overlaps or drops an octet collides.
	for i := 0; i < 6; i++ {
		for v := 0; v < 256; v++ {
			var m MAC
			m[i] = byte(v)
			check(m)
			for j := range m {
				if j != i {
					m[j] = 0xff
				}
			}
			check(m)
		}
	}
}
