package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"stellar/internal/engine"
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
// identical to appending into nil without growing the slice.
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
		want := web.AppendOffers(attack.AppendOffers(nil, tick, 1), tick, 1)
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

	if a.rateAt(99) != 0 || a.rateAt(100) == 0 || a.rateAt(699) == 0 || a.rateAt(700) != 0 {
		t.Fatal("attack window boundaries")
	}
	if len(a.AppendOffers(nil, 50, 1)) != 0 {
		t.Fatal("offers before start")
	}
	// During ramp the rate grows; at steady state it matches the peak rate.
	sum := func(tick int) float64 {
		var s float64
		for _, o := range a.AppendOffers(nil, tick, 1) {
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
	offers := a.AppendOffers(nil, 50, 1)
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
	o1, o2 := a1.AppendOffers(nil, 5, 1), a2.AppendOffers(nil, 5, 1)
	if len(o1) != len(o2) {
		t.Fatal("length mismatch")
	}
	for i := range o1 {
		a, b := o1[i], o2[i]
		if *a.Flow != *b.Flow || a.Bytes != b.Bytes || a.Packets != b.Packets {
			t.Fatalf("offer %d differs", i)
		}
	}
}

func TestWebServiceOffers(t *testing.T) {
	rng := stats.NewRand(3)
	peers := MakePeers(5)
	w := NewWebService(victim, peers, 8e8, rng)
	offers := w.AppendOffers(nil, 0, 1)
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
	if other := 1 - r.UDP - r.TCP; math.Abs(other-0.0003) > 1e-9 {
		t.Fatalf("RTBH mix leaves %v to other protocols, want 0.03 %%", other)
	}
	if r.UDP < 0.99 {
		t.Fatalf("RTBH UDP share: %v", r.UDP)
	}
	o := OtherProtoMix()
	if other := 1 - o.UDP - o.TCP; math.Abs(other-0.0030) > 1e-9 {
		t.Fatalf("other mix leaves %v to other protocols, want 0.30 %%", other)
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
		a.AppendOffers(nil, 100, 1)
	}
}

// TestSharedSourceConcurrentAppend: the engine fans victims across its
// worker pool and one source may feed several victims, so AppendOffers
// must only read the source. Goroutines appending from one fresh
// instance each get what a same-seed instance gives a lone caller, and
// under -race a write on the way (such as a key table built on first
// use without synchronization) fails the test.
func TestSharedSourceConcurrentAppend(t *testing.T) {
	type appender interface {
		AppendOffers([]fabric.Offer, int, float64) []fabric.Offer
	}
	peers := MakePeers(32)
	build := func() []appender {
		rng := stats.NewRand(9)
		return []appender{
			NewAttack(VectorNTP, victim, peers, 1e9, 0, 100, rng),
			NewWebService(victim, peers[:8], 2e8, rng),
			NewTrace(RTBHPortProfile(), victim, peers, []float64{3e8, 5e8}, 1, rng),
		}
	}
	render := func(offers []fabric.Offer) string {
		var b strings.Builder
		for _, o := range offers {
			fmt.Fprintf(&b, "%v %v %v\n", *o.Flow, o.Bytes, o.Packets)
		}
		return b.String()
	}
	shared, lone := build(), build()
	for i, src := range shared {
		want := render(lone[i].AppendOffers(nil, 7, 1))
		got := make([]string, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = render(src.AppendOffers(nil, 7, 1))
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != want {
				t.Fatalf("%T: goroutine %d got\n%s\nwant\n%s", src, g, got[g], want)
			}
		}
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

// TestSourcesNeverRewriteAKey pins the producer side of fabric.Offer's
// pointer-lifetime rule: a port takes an offer that carries the key
// pointer its position carried last tick without reading the key, so a
// source must never change a key it has offered. Over 64 ticks of each
// shipped source (an Attack ramping up, a WebService, a Trace and an
// engine.Pulsed train around an Attack), every flow is offered at one
// address, no address ever carries another flow, and the source's key
// table stays equal to its copy after the first tick.
func TestSourcesNeverRewriteAKey(t *testing.T) {
	rng := stats.NewRand(3)
	peers := MakePeers(24)
	ramped := NewAttack(VectorNTP, victim, peers, 1e9, 4, 50, rng)
	ramped.RampTicks = 8
	pulsed := NewAttack(VectorDNS, victim, peers[8:], 5e8, 0, 1<<30, rng)
	web := NewWebService(victim, peers[:8], 2e8, rng)
	rates := make([]float64, 48)
	for i := range rates {
		rates[i] = float64(1+i%7) * 1e8
	}
	trace := NewTrace(RTBHPortProfile(), victim, peers, rates, 8, rng)
	for _, tc := range []struct {
		name string
		src  engine.Source
		keys func() []netpkt.FlowKey
	}{
		{"Attack", ramped, func() []netpkt.FlowKey { return ramped.flows }},
		{"WebService", web, func() []netpkt.FlowKey { return web.flows }},
		{"Trace", trace, func() []netpkt.FlowKey { return trace.flows }},
		{"Pulsed", &engine.Pulsed{Src: pulsed, OnTicks: 3, OffTicks: 2, StartTick: 1},
			func() []netpkt.FlowKey { return pulsed.flows }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrOf := map[netpkt.FlowKey]*netpkt.FlowKey{}
			flowAt := map[*netpkt.FlowKey]netpkt.FlowKey{}
			var first []netpkt.FlowKey
			var buf []fabric.Offer
			for tick := 0; tick < 64; tick++ {
				buf = tc.src.AppendOffers(buf[:0], tick, 1)
				for _, o := range buf {
					f := *o.Flow
					if at, ok := addrOf[f]; ok && at != o.Flow {
						t.Fatalf("tick %d: flow %v offered at %p, earlier at %p", tick, f, o.Flow, at)
					}
					if was, ok := flowAt[o.Flow]; ok && was != f {
						t.Fatalf("tick %d: the key at %p changed from %v to %v", tick, o.Flow, was, f)
					}
					addrOf[f], flowAt[o.Flow] = o.Flow, f
				}
				if tick == 0 {
					first = slices.Clone(tc.keys())
				} else if !slices.Equal(tc.keys(), first) {
					t.Fatalf("tick %d: the key table changed since the first tick", tick)
				}
			}
			if len(first) == 0 || len(addrOf) == 0 {
				t.Fatalf("%d keys in the table, %d flows offered", len(first), len(addrOf))
			}
		})
	}
}
