package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

var victim = netip.MustParseAddr("100.10.10.10")

func TestVectors(t *testing.T) {
	vs := Vectors()
	if len(vs) != 6 {
		t.Fatalf("vectors: %d", len(vs))
	}
	// Figure 3(a)'s port set.
	wantPorts := map[uint16]bool{0: true, 123: true, 389: true, 11211: true, 53: true, 19: true}
	for _, v := range vs {
		if !wantPorts[v.SrcPort] {
			t.Errorf("unexpected vector port %d", v.SrcPort)
		}
	}
	if v, err := VectorByName("ntp"); err != nil || v.SrcPort != 123 {
		t.Fatalf("VectorByName: %+v %v", v, err)
	}
	if _, err := VectorByName("smurf"); err == nil {
		t.Fatal("unknown vector accepted")
	}
}

// TestVectorByNameIndex pins the map-backed lookup: every known vector
// resolves to itself and unknown names name the offender in the error.
func TestVectorByNameIndex(t *testing.T) {
	for _, want := range Vectors() {
		got, err := VectorByName(want.Name)
		if err != nil {
			t.Fatalf("VectorByName(%q): %v", want.Name, err)
		}
		if got != want {
			t.Fatalf("VectorByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	_, err := VectorByName("no-such-vector")
	if err == nil {
		t.Fatal("unknown vector accepted")
	}
	if got := err.Error(); got != `traffic: unknown vector "no-such-vector"` {
		t.Fatalf("error text: %q", got)
	}
}

// TestAppendOffersReusesBuffer pins the scenario engine's zero-per-tick
// allocation contract: appending into a warmed buffer emits offers
// identical to Offers without growing the slice.
func TestAppendOffersReusesBuffer(t *testing.T) {
	rng := stats.NewRand(5)
	peers := MakePeers(16)
	attack := NewAttack(VectorNTP, victim, peers, 1e9, 0, 100, rng)
	attack.RampTicks = 0
	web := NewWebService(victim, peers[:4], 1e8, rng)

	// Warm the buffer to capacity once.
	buf := attack.AppendOffers(nil, 1, 1)
	buf = web.AppendOffers(buf, 1, 1)
	capWarm := cap(buf)

	for tick := 2; tick < 6; tick++ {
		buf = attack.AppendOffers(buf[:0], tick, 1)
		buf = web.AppendOffers(buf, tick, 1)
		if cap(buf) != capWarm {
			t.Fatalf("tick %d: buffer regrew (%d -> %d)", tick, capWarm, cap(buf))
		}
		want := append(attack.Offers(tick, 1), web.Offers(tick, 1)...)
		if len(buf) != len(want) {
			t.Fatalf("tick %d: %d offers, want %d", tick, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("tick %d offer %d: %+v != %+v", tick, i, buf[i], want[i])
			}
		}
	}
}

func TestMakePeers(t *testing.T) {
	peers := MakePeers(650)
	if len(peers) != 650 {
		t.Fatal("count")
	}
	seen := make(map[netpkt.MAC]bool)
	for _, p := range peers {
		if seen[p.MAC] {
			t.Fatalf("duplicate MAC %s", p.MAC)
		}
		seen[p.MAC] = true
		if !p.SrcIP.IsValid() {
			t.Fatal("invalid src IP")
		}
	}
}

func TestAttackRateAndRamp(t *testing.T) {
	rng := stats.NewRand(1)
	peers := MakePeers(40)
	a := NewAttack(VectorNTP, victim, peers, 1e9, 100, 700, rng)

	if a.ActiveAt(99) || !a.ActiveAt(100) || !a.ActiveAt(699) || a.ActiveAt(700) {
		t.Fatal("ActiveAt boundaries")
	}
	if len(a.Offers(50, 1)) != 0 {
		t.Fatal("offers before start")
	}
	// During ramp the rate grows; at steady state it matches RateBps.
	sum := func(tick int) float64 {
		var s float64
		for _, o := range a.Offers(tick, 1) {
			s += o.Bytes
		}
		return s * 8
	}
	early := sum(100)
	steady := sum(200)
	if early >= steady {
		t.Fatalf("ramp: early %v >= steady %v", early, steady)
	}
	if math.Abs(steady-1e9) > 1e9*0.001 {
		t.Fatalf("steady rate %v, want 1e9", steady)
	}
}

func TestAttackOffersShape(t *testing.T) {
	rng := stats.NewRand(2)
	peers := MakePeers(40)
	a := NewAttack(VectorNTP, victim, peers, 1e9, 0, 100, rng)
	offers := a.Offers(50, 1)
	if len(offers) == 0 || len(offers) > 40 {
		t.Fatalf("offer count: %d", len(offers))
	}
	macs := make(map[netpkt.MAC]bool)
	for _, o := range offers {
		if o.Flow.Proto != netpkt.ProtoUDP || o.Flow.SrcPort != 123 {
			t.Fatalf("flow signature: %+v", o.Flow)
		}
		if o.Flow.Dst != victim {
			t.Fatal("wrong target")
		}
		if o.Packets <= 0 || o.Bytes <= 0 {
			t.Fatal("non-positive offer")
		}
		macs[o.Flow.SrcMAC] = true
	}
	// Attack traffic arrives via many distinct peers (40 in Fig 3c).
	if len(macs) < 30 {
		t.Fatalf("peer diversity: %d", len(macs))
	}
}

func TestAttackDeterminism(t *testing.T) {
	peers := MakePeers(10)
	a1 := NewAttack(VectorDNS, victim, peers, 1e8, 0, 10, stats.NewRand(7))
	a2 := NewAttack(VectorDNS, victim, peers, 1e8, 0, 10, stats.NewRand(7))
	o1, o2 := a1.Offers(5, 1), a2.Offers(5, 1)
	if len(o1) != len(o2) {
		t.Fatal("length mismatch")
	}
	for i := range o1 {
		a, b := o1[i], o2[i]
		if *a.Flow != *b.Flow || a.FlowHash != b.FlowHash || a.Bytes != b.Bytes || a.Packets != b.Packets {
			t.Fatalf("offer %d differs", i)
		}
	}
}

func TestWebServiceOffers(t *testing.T) {
	rng := stats.NewRand(3)
	peers := MakePeers(5)
	w := NewWebService(victim, peers, 8e8, rng)
	offers := w.Offers(0, 1)
	var total float64
	ports := make(map[uint16]float64)
	for _, o := range offers {
		if o.Flow.Proto != netpkt.ProtoTCP {
			t.Fatalf("benign proto: %v", o.Flow.Proto)
		}
		total += o.Bytes
		ports[o.Flow.DstPort] += o.Bytes
	}
	if math.Abs(total*8-8e8) > 8e8*0.001 {
		t.Fatalf("total rate %v, want 8e8", total*8)
	}
	// HTTPS dominates (Fig 2c pre-attack).
	if ports[443] <= ports[80] || ports[443] <= ports[8080] {
		t.Fatalf("port mix: %v", ports)
	}
}

func TestSampleEventNormalized(t *testing.T) {
	rng := stats.NewRand(4)
	for i := 0; i < 100; i++ {
		ev := SampleEvent(RTBHPortProfile(), rng)
		var sum float64
		for _, s := range ev.PortShare {
			if s < 0 {
				t.Fatal("negative share")
			}
			sum += s
		}
		sum += ev.Other
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("shares sum to %v", sum)
		}
	}
}

func TestProfilesMatchPaperAggregates(t *testing.T) {
	rng := stats.NewRand(5)
	events := SampleEvents(RTBHPortProfile(), 500, rng)
	mean := make(map[uint16]float64)
	for _, ev := range events {
		for p, s := range ev.PortShare {
			mean[p] += s / float64(len(events))
		}
	}
	// Port 0 highest, then 123, and all six ports materially present —
	// the ordering of Figure 3(a).
	if !(mean[0] > mean[123] && mean[123] > mean[389] && mean[389] > mean[11211]) {
		t.Fatalf("ordering violated: %v", mean)
	}
	for _, port := range []uint16{0, 123, 389, 11211, 53, 19} {
		if mean[port] < 0.01 {
			t.Fatalf("port %d share too small: %v", port, mean[port])
		}
	}
	// Non-blackholed traffic: the same ports are negligible.
	other := SampleEvents(OtherPortProfile(), 500, rng)
	meanOther := make(map[uint16]float64)
	for _, ev := range other {
		for p, s := range ev.PortShare {
			meanOther[p] += s / float64(len(other))
		}
	}
	for _, port := range []uint16{0, 123, 389, 11211, 19} {
		if meanOther[port] > 0.05 {
			t.Fatalf("other-traffic port %d share too large: %v", port, meanOther[port])
		}
	}
}

func TestProtoMixes(t *testing.T) {
	r := RTBHProtoMix()
	if math.Abs(r.UDP+r.TCP+r.Other-1) > 1e-9 {
		t.Fatal("RTBH mix does not sum to 1")
	}
	if r.UDP < 0.99 {
		t.Fatalf("RTBH UDP share: %v", r.UDP)
	}
	o := OtherProtoMix()
	if math.Abs(o.UDP+o.TCP+o.Other-1) > 1e-9 {
		t.Fatal("other mix does not sum to 1")
	}
	if o.TCP < 0.8 {
		t.Fatalf("other TCP share: %v", o.TCP)
	}
}

func TestPolicySharesSumToOne(t *testing.T) {
	var sum float64
	for _, p := range PolicyShares() {
		sum += p.Share
	}
	if math.Abs(sum-0.9999) > 0.001 {
		t.Fatalf("policy shares sum: %v", sum)
	}
}

func TestSamplePoliciesDistribution(t *testing.T) {
	rng := stats.NewRand(6)
	samples := SamplePolicies(20000, rng)
	counts := make(map[string]int)
	for _, s := range samples {
		counts[s.Label]++
	}
	allFrac := float64(counts["All"]) / 20000
	if allFrac < 0.92 || allFrac > 0.96 {
		t.Fatalf("All share = %v, want ~0.94", allFrac)
	}
	if counts["All-1"] == 0 {
		t.Fatal("All-1 never sampled")
	}
}

func BenchmarkAttackOffers(b *testing.B) {
	rng := stats.NewRand(1)
	a := NewAttack(VectorNTP, victim, MakePeers(60), 1e9, 0, 1<<30, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Offers(100, 1)
	}
}

func TestOffersPreHashedAndMutationSafe(t *testing.T) {
	rng := stats.NewRand(5)
	peers := MakePeers(4)
	a := NewAttack(VectorNTP, victim, peers, 1e9, 0, 100, rng)
	for _, o := range a.Offers(10, 1) {
		if o.FlowHash != o.Flow.Hash() {
			t.Fatalf("attack offer hash mismatch for %v", o.Flow)
		}
		if o.Flow.Dst != victim || o.Flow.SrcPort != VectorNTP.SrcPort {
			t.Fatalf("attack flow: %v", o.Flow)
		}
	}
	// Post-construction mutation must invalidate the cached keys.
	other := netip.MustParseAddr("203.0.113.99")
	a.Target = other
	a.Vector = VectorDNS
	for _, o := range a.Offers(11, 1) {
		if o.Flow.Dst != other || o.Flow.SrcPort != VectorDNS.SrcPort {
			t.Fatalf("mutated attack still emits stale flow: %v", o.Flow)
		}
		if o.FlowHash != o.Flow.Hash() {
			t.Fatalf("mutated attack hash mismatch for %v", o.Flow)
		}
	}

	// So must an in-place edit of one peer.
	moved := MakePeers(5)[4]
	a.Peers[2] = moved
	if o := a.Offers(12, 1)[2]; o.Flow.SrcMAC != moved.MAC || o.Flow.Src != moved.SrcIP || o.FlowHash != o.Flow.Hash() {
		t.Fatalf("edited peer still emits stale flow: %v", o.Flow)
	}

	w := NewWebService(victim, peers, 4e8, rng)
	for _, o := range w.Offers(0, 1) {
		if o.FlowHash != o.Flow.Hash() {
			t.Fatalf("web offer hash mismatch for %v", o.Flow)
		}
	}
	w.Target = other
	w.Mix = []PortMix{{Port: 8443, Share: 1}}
	w.Peers[0] = moved
	for i, o := range w.Offers(1, 1) {
		if o.Flow.Dst != other || o.Flow.DstPort != 8443 {
			t.Fatalf("mutated web service still emits stale flow: %v", o.Flow)
		}
		if i == 0 && o.Flow.SrcMAC != moved.MAC {
			t.Fatalf("edited web peer still emits stale flow: %v", o.Flow)
		}
		if o.FlowHash != o.Flow.Hash() {
			t.Fatalf("mutated web hash mismatch for %v", o.Flow)
		}
	}
}

// TestPeersLengthFixedAtConstruction: a source's per-peer weights are
// drawn when it is built, so growing or shrinking Peers afterwards is a
// programming error. AppendOffers reports it by name, with both lengths,
// instead of indexing past the weights.
func TestPeersLengthFixedAtConstruction(t *testing.T) {
	rng := stats.NewRand(5)
	peers := MakePeers(4)
	attack := NewAttack(VectorNTP, victim, peers, 1e9, 0, 100, rng)
	web := NewWebService(victim, peers, 4e8, rng)
	attack.Peers = append(attack.Peers, MakePeers(5)[4])
	web.Peers = web.Peers[:3]
	for _, tc := range []struct {
		name string
		src  interface {
			AppendOffers([]fabric.Offer, int, float64) []fabric.Offer
		}
		want string
	}{
		{"Attack", attack, "traffic: Attack has 5 peers but was built with 4: the length of Peers is fixed at construction"},
		{"WebService", web, "traffic: WebService has 3 peers but was built with 4: the length of Peers is fixed at construction"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
				}
			}()
			tc.src.AppendOffers(nil, 10, 1)
		}()
	}
}

// TestAppendOffersIntoNilAllocatesOnce pins the sized-once buffer: into
// a nil dst, one tick of an attack or a web service is one allocation
// (the offer slice at its flow count), not a run of doublings.
func TestAppendOffersIntoNilAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation keeps slices.Grow's zero-filled temporary")
	}
	rng := stats.NewRand(5)
	peers := MakePeers(600)
	attack := NewAttack(VectorNTP, victim, peers, 1e9, 0, 100, rng)
	web := NewWebService(victim, peers, 4e8, rng)
	web.AppendOffers(nil, 10, 1) // builds the web service's key cache
	for name, appendTick := range map[string]func(){
		"Attack":     func() { attack.AppendOffers(nil, 10, 1) },
		"WebService": func() { web.AppendOffers(nil, 10, 1) },
	} {
		if got := testing.AllocsPerRun(20, appendTick); got != 1 {
			t.Errorf("%s.AppendOffers(nil): %v allocations, want 1", name, got)
		}
	}
}
