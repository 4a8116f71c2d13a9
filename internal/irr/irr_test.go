package irr

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestRegistryAuthorization(t *testing.T) {
	r := NewRegistry()
	r.Register(64512, pfx("100.10.10.0/24"))

	cases := []struct {
		asn  uint32
		p    string
		want bool
	}{
		{64512, "100.10.10.0/24", true},
		{64512, "100.10.10.10/32", true}, // more specific: authorized
		{64512, "100.10.0.0/16", false},  // less specific: not
		{64512, "203.0.113.0/24", false},
		{64513, "100.10.10.0/24", false}, // wrong AS
	}
	for _, c := range cases {
		if got := r.Authorized(c.asn, pfx(c.p)); got != c.want {
			t.Errorf("Authorized(%d, %s) = %v, want %v", c.asn, c.p, got, c.want)
		}
	}
}

func TestBogons(t *testing.T) {
	b := DefaultBogons()
	for _, s := range []string{"10.1.2.0/24", "192.168.1.0/24", "127.0.0.1/32", "fe80::/64"} {
		if !b.Contains(pfx(s)) {
			t.Errorf("%s should be bogon", s)
		}
	}
	for _, s := range []string{"100.10.10.0/24", "8.8.8.0/24", "2001:db8::/48", "192.0.2.0/24"} {
		if b.Contains(pfx(s)) {
			t.Errorf("%s should not be bogon", s)
		}
	}
	if !b.Contains(pfx("10.1.2.3/32")) {
		t.Fatal("bogon not matched for a more specific")
	}
}

func TestPolicyCheck(t *testing.T) {
	p := NewPolicy()
	p.IRR.Register(64512, pfx("100.10.10.0/24"))

	if v := p.Check(pfx("100.10.10.10/32"), 64512); !v.Accept {
		t.Fatalf("legit /32 rejected: %s", v.Reason)
	}
	if v := p.Check(pfx("10.0.0.0/8"), 64512); v.Accept {
		t.Fatal("bogon accepted")
	}
	if v := p.Check(pfx("198.51.100.0/24"), 64512); v.Accept {
		t.Fatal("unregistered prefix accepted")
	}
	// Hijack: 64513 announces 64512's prefix. IRR rejects first.
	if v := p.Check(pfx("100.10.10.0/24"), 64513); v.Accept {
		t.Fatal("hijack accepted")
	}
}

func TestAuthorizedMoreSpecificProperty(t *testing.T) {
	// If a /16 is registered, every /24 inside it is authorized and every
	// /24 outside is not.
	r := NewRegistry()
	r.Register(7, pfx("100.10.0.0/16"))
	f := func(b3 uint8, outside bool) bool {
		var p netip.Prefix
		if outside {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{101, 10, b3, 0}), 24)
		} else {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, b3, 0}), 24)
		}
		return r.Authorized(7, p) == !outside
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
