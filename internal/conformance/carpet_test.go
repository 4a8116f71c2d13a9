package conformance

import (
	"fmt"
	"testing"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
)

// carpetProfile is a three-victim carpet over a 12-member exchange:
// every victim's carpet attack is a full-rate NTP flood over the whole
// run, and victim 0 alone has a web background.
func carpetProfile(rotate, start, end, ticks int) *Profile {
	p := &Profile{
		Name:     "carpet-test",
		Channel:  ChannelRTBH,
		Topology: Topology{Members: 12, Seed: 1},
		Run:      RunSpec{Ticks: ticks},
		Carpet:   &CarpetSpec{RotateTicks: rotate, StartTick: start, EndTick: end},
		Expect:   []Expectation{{Kind: "offered_bps", To: ticks, Min: f(0)}},
	}
	for v := 0; v < 3; v++ {
		p.Victims = append(p.Victims, VictimProfile{Member: v, CarpetAttack: &SourceSpec{
			Kind: "attack", Vector: "ntp", RateBps: 1e9, EndTick: ticks,
			RampTicks: new(int), Peers: PeerRange{From: 3, Count: 4}}})
	}
	p.Victims[0].Background = []SourceSpec{{Kind: "web", RateBps: 1e8, Peers: PeerRange{From: 8, Count: 2}}}
	return p
}

// carpetDriver compiles a profile and returns its engine driver.
func carpetDriver(t *testing.T, p *Profile) engine.Driver {
	t.Helper()
	_, cfg, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Driver
}

// carpetVictim is the rotation's victim at tick, or -1 outside the
// carpet window.
func carpetVictim(c *CarpetSpec, n, tick int) int {
	if tick < c.StartTick || (c.EndTick > 0 && tick >= c.EndTick) {
		return -1
	}
	return ((tick - c.StartTick) / max(c.RotateTicks, 1)) % n
}

// countOffers splits a victim's offers into the carpet's NTP attack and
// the rest (its web background).
func countOffers(offers []fabric.Offer) (attack, other int) {
	for _, o := range offers {
		if o.Flow.Proto == netpkt.ProtoUDP && o.Flow.SrcPort == 123 {
			attack++
		} else {
			other++
		}
	}
	return attack, other
}

// checkCarpetTick asserts that exactly the rotation's victim receives
// attack offers at tick, and that victim 0's background stays on.
func checkCarpetTick(t *testing.T, p *Profile, d engine.Driver, tick int) {
	t.Helper()
	want := carpetVictim(p.Carpet, len(p.Victims), tick)
	for v := range p.Victims {
		attack, other := countOffers(d.AppendOffers(v, nil, tick, 1))
		if (attack > 0) != (v == want) {
			t.Errorf("tick %d victim %d: %d attack offers, rotation is at victim %d", tick, v, attack, want)
		}
		if (other > 0) != (v == 0) {
			t.Errorf("tick %d victim %d: %d background offers", tick, v, other)
		}
	}
}

// TestCarpetRotation pins the compiled pulse trains against the
// rotation arithmetic at every tick of the run: inside [start, end)
// exactly victim ((t−start)/rot) mod n is attacked, outside it none
// is, and per-victim background stays on throughout.
func TestCarpetRotation(t *testing.T) {
	for _, c := range []struct{ rotate, start, end int }{
		{2, 4, 16}, {3, 0, 0}, {1, 0, 12}, {4, 7, 30},
		{0, 5, 0}, // rotate_ticks 0 dwells one tick
	} {
		t.Run(fmt.Sprintf("rotate=%d start=%d end=%d", c.rotate, c.start, c.end), func(t *testing.T) {
			p := carpetProfile(c.rotate, c.start, c.end, 40)
			d := carpetDriver(t, p)
			for tick := 0; tick < p.Run.Ticks; tick++ {
				checkCarpetTick(t, p, d, tick)
			}
		})
	}
}

// TestCarpetRotationWrap pins the prefix-rotation wrap: after the last
// victim the carpet must return to victim 0 on the exact tick, for
// one-tick and multi-tick dwells, arbitrarily deep into the window.
func TestCarpetRotationWrap(t *testing.T) {
	cases := []struct {
		name       string
		rotate     int
		start, end int
		tick, want int
	}{
		{"first wrap tick", 2, 0, 0, 6, 0},
		{"last tick before wrap", 2, 0, 0, 5, 2},
		{"one-tick dwell wraps every len ticks", 1, 0, 0, 3, 0},
		{"one-tick dwell mid-cycle", 1, 0, 0, 5, 2},
		{"deep into the window", 3, 0, 0, 904, 1},
		{"wrap with offset start", 2, 10, 0, 16, 0},
		{"offset start, pre-window", 2, 10, 0, 9, -1},
		{"end tick is exclusive", 1, 0, 12, 12, -1},
		{"last in-window tick", 1, 0, 12, 11, 2},
		{"rotate clamps to one", 0, 0, 0, 4, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := carpetProfile(c.rotate, c.start, c.end, 1000)
			if got := carpetVictim(p.Carpet, len(p.Victims), c.tick); got != c.want {
				t.Fatalf("rotation at tick %d is victim %d, want %d", c.tick, got, c.want)
			}
			checkCarpetTick(t, p, carpetDriver(t, p), c.tick)
		})
	}
}

// TestCarpetThroughEngine runs a compiled carpet on the engine and
// checks the offered series shows the rotation: each victim's attacked
// ticks are exactly its rotation dwells.
func TestCarpetThroughEngine(t *testing.T) {
	p := carpetProfile(3, 2, 0, 14)
	p.Victims[0].Background = nil
	_, cfg, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	series, err := engine.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := range series {
		for tick, s := range series[v].Samples {
			want := carpetVictim(p.Carpet, len(p.Victims), tick) == v
			if got := s.OfferedBps > 0; got != want {
				t.Fatalf("victim %d tick %d: offered %v, want attacked=%v", v, tick, s.OfferedBps, want)
			}
		}
	}
}

// TestPulseEndTickStopsTrain: a pulse source's end_tick ends its train.
// pulse-attack's train starts at tick 40 with 10-tick on and off
// windows; ended at 60, it leaves only the web background in the second
// on-window.
func TestPulseEndTickStopsTrain(t *testing.T) {
	p, err := Load("pulse-attack")
	if err != nil {
		t.Fatal(err)
	}
	p.Victims[0].Sources[0].EndTick = 60
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d := carpetDriver(t, p)
	for tick := 30; tick < 80; tick++ {
		attack, other := countOffers(d.AppendOffers(0, nil, tick, 1))
		if want := tick >= 40 && tick < 50; (attack > 0) != want || other == 0 {
			t.Fatalf("tick %d: %d attack and %d web offers, want attacked=%v over web", tick, attack, other, want)
		}
	}
}
