package mitctl

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// refMatchString is fabric.Match's text form as it was formatted before
// Match.AppendTo: the reference the appended form must reproduce.
func refMatchString(m fabric.Match) string {
	var parts []string
	if m.SrcMAC != nil {
		parts = append(parts, "src-mac="+m.SrcMAC.String())
	}
	if m.Proto != 0 {
		parts = append(parts, "proto="+m.Proto.String())
	}
	if m.SrcIP.IsValid() {
		parts = append(parts, "src="+m.SrcIP.String())
	}
	if m.DstIP.IsValid() {
		parts = append(parts, "dst="+m.DstIP.String())
	}
	if m.SrcPort != fabric.AnyPort {
		parts = append(parts, fmt.Sprintf("src-port=%d", m.SrcPort))
	}
	if m.DstPort != fabric.AnyPort {
		parts = append(parts, fmt.Sprintf("dst-port=%d", m.DstPort))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// refKey is the content key formatted with fmt, the form every derived
// ID and golden was made from.
func refKey(s Spec) string {
	k := fmt.Sprintf("%s|%s|%s|%v|%g|%v", s.Requester, s.Target, refMatchString(s.Match), s.Action, s.ShapeRateBps, s.Scope)
	if s.Scope == ScopePerPeer {
		for _, p := range s.Peers {
			k += "|" + p
		}
	}
	return k
}

// refID is DeriveID formatted with fmt and hashed with hash/fnv.
func refID(s Spec) string {
	s, _ = s.normalized()
	h := fnv.New32a()
	h.Write([]byte(refKey(s)))
	return fmt.Sprintf("mit:%s:%s:%08x", s.Requester, s.Target, h.Sum32())
}

func randPrefix(rng *rand.Rand) netip.Prefix {
	if rng.IntN(3) == 0 {
		var a [16]byte
		for i := range a {
			a[i] = byte(rng.UintN(256))
		}
		return netip.PrefixFrom(netip.AddrFrom16(a), 16+rng.IntN(113))
	}
	a := [4]byte{byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256))}
	return netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.IntN(25))
}

func randName(rng *rand.Rand) string {
	if rng.IntN(4) == 0 {
		const alphabet = "abAB09:-_#. "
		b := make([]byte, 1+rng.IntN(8))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		return string(b)
	}
	return fmt.Sprintf("AS%d", 64512+rng.IntN(4))
}

// randPort draws the wildcard, port 0 (a real port, Figure 3a) or any
// other port.
func randPort(rng *rand.Rand) int32 {
	switch rng.IntN(3) {
	case 0:
		return fabric.AnyPort
	case 1:
		return 0
	}
	return int32(rng.IntN(65536))
}

func randRate(rng *rand.Rand) float64 {
	switch rng.IntN(5) {
	case 0:
		return float64(1 + rng.IntN(1000))
	case 1:
		return math.Ldexp(rng.Float64(), rng.IntN(160)-40)
	case 2:
		return float64(float32(rng.Float64() * 1e9 * 8)) // a wire traffic rate
	case 3:
		return float64(1+rng.IntN(9)) * math.Pow(10, float64(rng.IntN(40)-10))
	}
	return rng.Float64() * 1e10
}

// randSpec draws a spec over every field the key covers and the ones it
// excludes; about a tenth fail normalization.
func randSpec(rng *rand.Rand) Spec {
	s := Spec{
		Requester: randName(rng),
		Target:    randPrefix(rng),
		Match:     fabric.MatchAll(),
		Action:    fabric.ActionDrop,
		TTL:       float64(rng.IntN(3) * 30),
	}
	if rng.IntN(4) == 0 {
		s.ID = "explicit"
	}
	if rng.IntN(4) == 0 {
		s.Origin = "ixp-" + randName(rng)
	}
	if rng.IntN(4) == 0 {
		mac := netpkt.MAC{0x02, 0, 0, 0, byte(rng.IntN(2)), byte(rng.IntN(4))}
		s.Match.SrcMAC = &mac
	}
	s.Match.Proto = []netpkt.IPProto{0, netpkt.ProtoICMP, netpkt.ProtoTCP, netpkt.ProtoUDP, netpkt.IPProto(rng.IntN(256))}[rng.IntN(5)]
	if rng.IntN(3) == 0 {
		s.Match.SrcIP = randPrefix(rng)
	}
	if rng.IntN(3) == 0 {
		s.Match.DstIP = randPrefix(rng)
	}
	s.Match.SrcPort, s.Match.DstPort = randPort(rng), randPort(rng)
	if rng.IntN(2) == 0 {
		s.Action, s.ShapeRateBps = fabric.ActionShape, randRate(rng)
	} else if rng.IntN(4) == 0 {
		s.ShapeRateBps = randRate(rng) // a drop's rate normalizes to 0
	}
	if rng.IntN(2) == 0 {
		s.Scope = ScopePerPeer
		for n := rng.IntN(4); n >= 0; n-- {
			s.Peers = append(s.Peers, randName(rng))
		}
	} else if rng.IntN(4) == 0 {
		s.Peers = []string{randName(rng)} // all-peers scope drops them
	}
	if rng.IntN(20) == 0 {
		s.Peers = nil // per-peer without peers fails normalization
	}
	return s
}

// TestSpecKeyMatchesFmtReference: the appended content key and the
// derived ID are byte-identical to their fmt-formatted reference over
// random specs, so no mitigation ID changes with the formatting.
func TestSpecKeyMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 1))
	var checked, v6, perPeer, shaped, macs int
	for i := 0; i < 20000; i++ {
		s := randSpec(rng)
		if got, want := DeriveID(s), refID(s); got != want {
			t.Fatalf("spec %+v: DeriveID %q, reference %q", s, got, want)
		}
		n, err := s.normalized()
		if err != nil {
			continue
		}
		if got, want := string(n.appendKey(nil)), refKey(n); got != want {
			t.Fatalf("spec %+v: key %q, reference %q", n, got, want)
		}
		if got, want := string(n.Match.AppendTo([]byte("x"))), "x"+refMatchString(n.Match); got != want {
			t.Fatalf("match %+v: AppendTo %q, reference %q", n.Match, got, want)
		}
		checked++
		if n.Target.Addr().Is6() {
			v6++
		}
		if n.Scope == ScopePerPeer {
			perPeer++
		}
		if n.Action == fabric.ActionShape {
			shaped++
		}
		if n.Match.SrcMAC != nil {
			macs++
		}
	}
	// Normalization always sets DstIP, so no key prints "any".
	if got := fabric.MatchAll().String(); got != "any" {
		t.Fatalf("MatchAll prints %q", got)
	}
	if checked < 15000 || v6 == 0 || perPeer == 0 || shaped == 0 || macs == 0 {
		t.Fatalf("coverage: %d normalized specs, %d v6, %d per-peer, %d shaped, %d with a MAC",
			checked, v6, perPeer, shaped, macs)
	}
}

// variant returns a copy of s with one field redrawn, or with only the
// fields outside the content (ID, TTL, Origin, a MAC pointer) changed.
func variant(rng *rand.Rand, s Spec) Spec {
	v := s
	v.Peers = append([]string(nil), s.Peers...)
	if s.Match.SrcMAC != nil {
		mac := *s.Match.SrcMAC
		v.Match.SrcMAC = &mac // same MAC, another pointer
	}
	o := randSpec(rng)
	switch rng.IntN(12) {
	case 0:
		v.Requester = o.Requester
	case 1:
		v.Target = o.Target
	case 2:
		v.Match.SrcMAC = o.Match.SrcMAC
	case 3:
		v.Match.Proto = o.Match.Proto
	case 4:
		v.Match.SrcIP = o.Match.SrcIP
	case 5:
		// Unset, the target, or another prefix.
		v.Match.DstIP = []netip.Prefix{{}, s.Target.Masked(), o.Match.DstIP}[rng.IntN(3)]
	case 6:
		v.Match.SrcPort, v.Match.DstPort = o.Match.SrcPort, o.Match.DstPort
	case 7:
		v.Action, v.ShapeRateBps = o.Action, o.ShapeRateBps
	case 8:
		v.Scope = o.Scope
	case 9:
		if len(v.Peers) > 0 && rng.IntN(2) == 0 {
			v.Peers[rng.IntN(len(v.Peers))] = randName(rng)
		} else {
			v.Peers = o.Peers
		}
	default:
		v.ID, v.TTL, v.Origin = o.ID, o.TTL, o.Origin
	}
	return v
}

// TestSameContentMatchesKeyEquality: the content comparison Request
// refreshes by agrees with comparing content keys, in both directions,
// for specs whose names contain no '|' (with one, two keys can collide).
func TestSameContentMatchesKeyEquality(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 2))
	var same, differ int
	for i := 0; i < 40000; i++ {
		a, err := randSpec(rng).normalized()
		if err != nil {
			continue
		}
		b, err := variant(rng, a).normalized()
		if err != nil {
			continue
		}
		keysEqual := string(a.appendKey(nil)) == string(b.appendKey(nil))
		if got := a.sameContent(&b); got != keysEqual {
			t.Fatalf("sameContent = %v, keys equal = %v:\n a %+v\n b %+v", got, keysEqual, a, b)
		}
		if got := b.sameContent(&a); got != keysEqual {
			t.Fatalf("sameContent not symmetric:\n a %+v\n b %+v", a, b)
		}
		if keysEqual {
			same++
		} else {
			differ++
		}
	}
	if same < 1000 || differ < 1000 {
		t.Fatalf("coverage: %d equal pairs, %d different pairs", same, differ)
	}
}

// TestDeriveIDAlloc pins DeriveID at one allocation, the ID string: the
// key is appended into a stack buffer and hashed in place.
func TestDeriveIDAlloc(t *testing.T) {
	specs := []Spec{dropSpec(0), dropSpec(1)}
	specs[1].Action, specs[1].ShapeRateBps = fabric.ActionShape, 2.5e8
	specs[1].Scope, specs[1].Peers = ScopePerPeer, []string{memberName(2), memberName(3)}
	for _, s := range specs {
		var id string
		if allocs := testing.AllocsPerRun(100, func() { id = DeriveID(s) }); allocs != 1 {
			t.Errorf("DeriveID(%s) allocates %v times, want 1", id, allocs)
		}
		if id != refID(s) {
			t.Errorf("DeriveID = %q, reference %q", id, refID(s))
		}
	}
}

// TestRequestRejectsNonFiniteFlowSpecRate: a FlowSpec traffic-rate is a
// wire float32, so it can carry NaN or +Inf; the spec it compiles to
// must not normalize, be stored or install.
func TestRequestRejectsNonFiniteFlowSpecRate(t *testing.T) {
	target := netip.MustParsePrefix("100.0.0.10/32")
	fs := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.DstPrefix(target),
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(uint64(netpkt.ProtoUDP))),
	}}
	for _, rate := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		attrs := &bgp.PathAttrs{ExtCommunities: []bgp.ExtCommunity{bgp.TrafficRate(64512, rate)}}
		specs, err := SpecsFromFlowSpec(memberName(0), fs, attrs, 0)
		if err != nil || len(specs) != 1 {
			t.Fatalf("rate %v: %d specs, error %v", rate, len(specs), err)
		}
		h := newHarness(t, 1, nil)
		ctl := New(h.config())
		for _, s := range specs {
			if _, err := ctl.Request(s, 0); err == nil || errors.Is(err, ErrValidation) {
				t.Fatalf("rate %v: Request error %v, want a spec shape error", rate, err)
			}
		}
		if n := ctl.Process(1); n != 0 || len(ctl.Snapshot()) != 0 {
			t.Fatalf("rate %v: %d changes applied, %d mitigations stored", rate, n, len(ctl.Snapshot()))
		}
	}
}
