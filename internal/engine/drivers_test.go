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
	d := NewPulseDriver("v", &countSource{id: 7, n: 4}, 2, 2, 4, &countSource{id: 1, n: 1})
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

// TestCarpetDriverRotation pins the rotating-victim arithmetic and the
// per-victim background behavior.
func TestCarpetDriverRotation(t *testing.T) {
	specs := []VictimSpec{{Port: "a"}, {Port: "b"}, {Port: "c"}}
	attacks := []Source{&countSource{id: 1, n: 2}, &countSource{id: 2, n: 2}, &countSource{id: 3, n: 2}}
	d := NewCarpetDriver(specs, attacks, 2)
	d.StartTick = 4
	d.EndTick = 16
	d.Background = [][]Source{{&countSource{id: 9, n: 1}}}

	cases := []struct {
		tick, victim int
	}{
		{0, -1}, {3, -1}, // before the carpet
		{4, 0}, {5, 0}, {6, 1}, {7, 1}, {8, 2}, {9, 2},
		{10, 0},                     // wrapped around
		{15, 2}, {16, -1}, {99, -1}, // after the carpet
	}
	for _, c := range cases {
		if got := d.CurrentVictim(c.tick); got != c.victim {
			t.Fatalf("tick %d: victim %d, want %d", c.tick, got, c.victim)
		}
	}
	// Victim 0: background every tick, attack only while pointed at.
	if got := len(d.AppendOffers(0, nil, 6, 1)); got != 1 {
		t.Fatalf("victim 0 off-rotation: %d offers, want 1 (background)", got)
	}
	if got := len(d.AppendOffers(0, nil, 4, 1)); got != 3 {
		t.Fatalf("victim 0 on-rotation: %d offers, want 3", got)
	}
	// Victim 1 has no background list.
	if got := len(d.AppendOffers(1, nil, 4, 1)); got != 0 {
		t.Fatalf("victim 1 off-rotation: %d offers, want 0", got)
	}
	if got := len(d.AppendOffers(1, nil, 6, 1)); got != 2 {
		t.Fatalf("victim 1 on-rotation: %d offers, want 2", got)
	}
	// RotateTicks <= 0 clamps to 1.
	fast := NewCarpetDriver(specs, attacks, 0)
	if got := fast.CurrentVictim(1); got != 1 {
		t.Fatalf("rotate-0 tick 1: victim %d, want 1", got)
	}
}

// TestCarpetDriverThroughEngine runs a carpet over three victims and
// checks the delivered series shows the rotation: each victim's peak
// ticks are exactly its rotation dwells.
func TestCarpetDriverThroughEngine(t *testing.T) {
	specs := []VictimSpec{{Port: "a"}, {Port: "b"}, {Port: "c"}}
	attacks := []Source{newFlowSource(0), newFlowSource(1), newFlowSource(2)}
	d := NewCarpetDriver(specs, attacks, 3)
	cfg := Config{
		Driver:    d,
		DataPlane: newFakePlane(),
		Ticks:     9,
		Dt:        1,
	}
	series, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := range series {
		for i, s := range series[v].Samples {
			want := d.CurrentVictim(i) == v
			got := s.DeliveredBps > 0
			if got != want {
				t.Fatalf("victim %d tick %d: delivered=%v, want %v", v, i, got, want)
			}
		}
	}
}
