package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/stats"
)

func testTracePeers(n int) []Peer {
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{
			MAC:   mustMAC(i),
			SrcIP: netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
		}
	}
	return peers
}

func mustMAC(i int) (m [6]byte) {
	m[0] = 0x02
	m[5] = byte(i + 1)
	return
}

// TestTraceRateReplay: per-tick offered bytes follow the rate series
// exactly, ticks past the end hold the last rate, and an empty series
// emits nothing.
func TestTraceRateReplay(t *testing.T) {
	rates := []float64{8e6, 16e6, 0, 4e6}
	tr := NewTrace(RTBHPortProfile(), netip.MustParseAddr("100.64.0.1"),
		testTracePeers(6), rates, 2, stats.NewRand(7))
	sum := func(tick int) float64 {
		var total float64
		for _, o := range tr.AppendOffers(nil, tick, 1) {
			total += o.Bytes
		}
		return total
	}
	for tick, rate := range rates {
		want := rate / 8
		if got := sum(tick); math.Abs(got-want) > 1e-6*math.Max(want, 1) {
			t.Fatalf("tick %d: %v bytes, want %v", tick, got, want)
		}
	}
	// Past the end: the last rate repeats.
	if got, want := sum(9), rates[len(rates)-1]/8; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("tail tick: %v bytes, want %v", got, want)
	}
	// dt scales volume linearly.
	var dt2 float64
	for _, o := range tr.AppendOffers(nil, 0, 2) {
		dt2 += o.Bytes
	}
	if want := 2 * rates[0] / 8; math.Abs(dt2-want) > 1e-6*want {
		t.Fatalf("dt=2: %v bytes, want %v", dt2, want)
	}

	empty := NewTrace(RTBHPortProfile(), netip.MustParseAddr("100.64.0.1"),
		testTracePeers(2), nil, 1, stats.NewRand(7))
	if got := empty.AppendOffers(nil, 0, 1); len(got) != 0 {
		t.Fatalf("empty trace emitted %d offers", len(got))
	}
}

// TestTraceSegmentsResample: each segment replays one
// sampled event composition — the port mix is constant inside a segment
// and (with the profile's variance) differs across segments.
func TestTraceSegmentsResample(t *testing.T) {
	rates := make([]float64, 40)
	for i := range rates {
		rates[i] = 1e9
	}
	tr := NewTrace(RTBHPortProfile(), netip.MustParseAddr("100.64.0.1"),
		testTracePeers(4), rates, 10, stats.NewRand(3))

	portMix := func(tick int) string {
		mix := make(map[uint16]float64)
		var total float64
		for _, o := range tr.AppendOffers(nil, tick, 1) {
			mix[o.Flow.SrcPort] += o.Bytes
			total += o.Bytes
		}
		out := ""
		for _, port := range []uint16{0, 19, 53, 123, 389, 11211} {
			out += fmt.Sprintf("%d:%.6f ", port, mix[port]/total)
		}
		return out
	}
	if a, b := portMix(0), portMix(9); a != b {
		t.Fatalf("mix changed inside a segment:\n%s\n%s", a, b)
	}
	if a, b := portMix(0), portMix(10); a == b {
		t.Fatal("mix identical across segments (no event-to-event variance)")
	}
	// NTP is a profiled heavy hitter: its share must be material.
	var ntp, total float64
	for _, o := range tr.AppendOffers(nil, 0, 1) {
		if o.Flow.SrcPort == 123 {
			ntp += o.Bytes
		}
		total += o.Bytes
	}
	if share := ntp / total; share < 0.02 {
		t.Fatalf("NTP share %.4f implausibly small", share)
	}
}

// TestTraceDeterministicAndReusable: identical seeds replay identically,
// AppendOffers reuses the caller's buffer, and every offer targets the
// victim.
func TestTraceDeterministicAndReusable(t *testing.T) {
	build := func() *Trace {
		return NewTrace(RTBHPortProfile(), netip.MustParseAddr("100.64.0.1"),
			testTracePeers(5), []float64{5e8, 7e8}, 1, stats.NewRand(11))
	}
	a, b := build(), build()
	for tick := 0; tick < 2; tick++ {
		if fmt.Sprint(a.AppendOffers(nil, tick, 1)) != fmt.Sprint(b.AppendOffers(nil, tick, 1)) {
			t.Fatalf("tick %d: same-seed traces diverged", tick)
		}
	}

	buf := make([]fabric.Offer, 0, 256)
	out1 := a.AppendOffers(buf, 0, 1)
	out2 := a.AppendOffers(out1[:0], 0, 1)
	if &out1[0] != &out2[0] {
		t.Fatal("AppendOffers abandoned the caller's buffer")
	}
	for _, o := range out2 {
		if o.Flow.Dst != netip.MustParseAddr("100.64.0.1") {
			t.Fatalf("offer targets %v", o.Flow.Dst)
		}
	}
}
