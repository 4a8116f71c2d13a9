package engine

import (
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// anonFlow is the flow of the tests' sources that only count bytes:
// the zero key, shared read-only by every offer that points at it.
var anonFlow netpkt.FlowKey

// byteSource emits one offer of a fixed size per tick.
type byteSource struct {
	bytes float64
}

func (s *byteSource) Offers(tick int, dt float64) []fabric.Offer {
	return []fabric.Offer{{Flow: &anonFlow, Bytes: s.bytes * dt}}
}

// countSource emits n offers per tick, tagged with its id.
type countSource struct {
	id, n int
}

func (s *countSource) Offers(tick int, dt float64) []fabric.Offer {
	out := make([]fabric.Offer, s.n)
	for i := range out {
		out[i] = fabric.Offer{Flow: &anonFlow, Bytes: float64(s.id*1000 + tick)}
	}
	return out
}

// TestSourcesDriverSharedDetection: one Source instance feeding two
// victims forces serial generation; disjoint sources do not.
func TestSourcesDriverSharedDetection(t *testing.T) {
	shared := &countSource{id: 1, n: 1}
	d := NewSourcesDriver(
		[]VictimSpec{{Port: "a"}, {Port: "b"}},
		[][]Source{{shared}, {shared}})
	if !d.SerialGen() {
		t.Fatal("shared source not detected")
	}
	d2 := NewSourcesDriver(
		[]VictimSpec{{Port: "a"}, {Port: "b"}},
		[][]Source{{&countSource{id: 1, n: 1}}, {&countSource{id: 2, n: 1}}})
	if d2.SerialGen() {
		t.Fatal("disjoint sources flagged as shared")
	}
	// A victim past the source lists simply receives nothing.
	d3 := NewSourcesDriver([]VictimSpec{{Port: "a"}, {Port: "b"}},
		[][]Source{{&countSource{id: 1, n: 3}}})
	if got := d3.AppendOffers(1, nil, 0, 1); len(got) != 0 {
		t.Fatalf("victim without sources got %d offers", len(got))
	}
	if got := d3.AppendOffers(0, nil, 0, 1); len(got) != 3 {
		t.Fatalf("victim 0 got %d offers, want 3", len(got))
	}
}

// TestPulsedWindows pins the on/off train arithmetic.
func TestPulsedWindows(t *testing.T) {
	p := &Pulsed{Src: &countSource{id: 1, n: 2}, OnTicks: 3, OffTicks: 2, StartTick: 10}
	cases := []struct {
		tick int
		on   bool
	}{
		{0, false}, {9, false}, // before the train
		{10, true}, {11, true}, {12, true}, // first on-window
		{13, false}, {14, false}, // first off-window
		{15, true}, {17, true}, {18, false}, // second period
	}
	for _, c := range cases {
		if got := p.ActiveAt(c.tick); got != c.on {
			t.Fatalf("tick %d: active=%v, want %v", c.tick, got, c.on)
		}
		want := 0
		if c.on {
			want = 2
		}
		if got := len(p.Offers(c.tick, 1)); got != want {
			t.Fatalf("tick %d: %d offers, want %d", c.tick, got, want)
		}
	}
	// Zero off-ticks means always on once started.
	solid := &Pulsed{Src: &countSource{id: 1, n: 1}, OnTicks: 5, OffTicks: 0, StartTick: 0}
	for _, tick := range []int{0, 4, 5, 99} {
		if !solid.ActiveAt(tick) {
			t.Fatalf("offless train inactive at %d", tick)
		}
	}
	// OnTicks <= 0 never fires.
	if (&Pulsed{Src: &countSource{}, OnTicks: 0}).ActiveAt(3) {
		t.Fatal("zero on-window fired")
	}
}

// TestPulseDriver: the gated attack plus always-on background.
func TestPulseDriver(t *testing.T) {
	pulse := &Pulsed{Src: &countSource{id: 7, n: 4}, OnTicks: 2, OffTicks: 2, StartTick: 4}
	d := NewSourcesDriver([]VictimSpec{{Port: "v"}}, [][]Source{{pulse, &countSource{id: 1, n: 1}}})
	if got := d.Victims(); len(got) != 1 || got[0].Port != "v" {
		t.Fatalf("victims: %+v", got)
	}
	// Off-window: background only.
	if got := len(d.AppendOffers(0, nil, 0, 1)); got != 1 {
		t.Fatalf("off-window offers: %d, want 1", got)
	}
	// On-window: attack + background.
	if got := len(d.AppendOffers(0, nil, 5, 1)); got != 5 {
		t.Fatalf("on-window offers: %d, want 5", got)
	}
}
