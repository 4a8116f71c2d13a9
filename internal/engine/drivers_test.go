package engine

import (
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// anonFlow is the flow of the tests' sources that only count bytes:
// the zero key, shared read-only by every offer that points at it.
var anonFlow netpkt.FlowKey

// byteSource emits one offer of a fixed size per tick.
type byteSource struct {
	bytes float64
}

func (s *byteSource) AppendOffers(dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	return append(dst, fabric.Offer{Flow: &anonFlow, Bytes: s.bytes * dt})
}

// countSource emits n offers per tick, tagged with its id.
type countSource struct {
	id, n int
}

func (s *countSource) AppendOffers(dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	for range s.n {
		dst = append(dst, fabric.Offer{Flow: &anonFlow, Bytes: float64(s.id*1000 + tick)})
	}
	return dst
}

// TestSourcesDriverVictimWithoutSources: a victim past the source lists
// simply receives nothing.
func TestSourcesDriverVictimWithoutSources(t *testing.T) {
	d := NewSourcesDriver([]VictimSpec{{Port: "a"}, {Port: "b"}},
		[][]Source{{&countSource{id: 1, n: 3}}})
	if got := d.AppendOffers(1, nil, 0, 1); len(got) != 0 {
		t.Fatalf("victim without sources got %d offers", len(got))
	}
	if got := d.AppendOffers(0, nil, 0, 1); len(got) != 3 {
		t.Fatalf("victim 0 got %d offers, want 3", len(got))
	}
}

// TestEngineSharedSourceMatchesOwnInstances: four victims fed by one
// instance of each traffic source, generating concurrently on the pool,
// get the series of four victims with their own same-seed instances.
// Under -race it also checks that generation only reads a source.
func TestEngineSharedSourceMatchesOwnInstances(t *testing.T) {
	const victims, ticks = 4, 12
	target := netip.MustParseAddr("100.64.0.1")
	peers := traffic.MakePeers(8)
	build := func() []Source {
		rng := stats.NewRand(3)
		attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 1e9, 2, ticks, rng)
		web := traffic.NewWebService(target, peers[:4], 2e8, rng)
		trace := traffic.NewTrace(traffic.RTBHPortProfile(), target, peers, []float64{3e8, 5e8, 4e8}, 4, rng)
		return []Source{attack, web, &Pulsed{Src: trace, OnTicks: 2, OffTicks: 1}}
	}
	run := func(sources [][]Source) []VictimSeries {
		t.Helper()
		specs := make([]VictimSpec, victims)
		for v := range specs {
			specs[v] = VictimSpec{Port: fmt.Sprintf("port%d", v)}
		}
		series, err := New(Config{
			Driver:    NewSourcesDriver(specs, sources),
			DataPlane: newFakePlane(),
			Pool:      testPool(t, victims),
			Ticks:     ticks,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	shared := build()
	sharedLists, own := make([][]Source, victims), make([][]Source, victims)
	for v := range own {
		sharedLists[v], own[v] = shared, build()
	}
	requireSameSeries(t, "shared sources", run(sharedLists), run(own))
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
		if got := len(p.AppendOffers(nil, c.tick, 1)); got != want {
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
