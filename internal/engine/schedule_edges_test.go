package engine

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
)

// TestPulseDriverPeriodEdges pins the degenerate pulse periods: zero
// and one-tick on/off windows, where an off-by-one in the modulo
// arithmetic would silently turn a pulse train solid or dark.
func TestPulseDriverPeriodEdges(t *testing.T) {
	cases := []struct {
		name       string
		on, off    int
		start, end int
		active     []int
		inactive   []int
	}{
		{"one-on one-off alternates every tick", 1, 1, 0, 0,
			[]int{0, 2, 4, 100}, []int{1, 3, 5, 101}},
		{"one-tick period with offset start", 1, 1, 7, 0,
			[]int{7, 9, 11}, []int{0, 6, 8, 10}},
		{"zero on-window never fires", 0, 5, 0, 0,
			nil, []int{0, 1, 4, 5, 99}},
		{"zero off-window is solid once started", 3, 0, 2, 0,
			[]int{2, 3, 4, 5, 999}, []int{0, 1}},
		{"zero period never fires", 0, 0, 0, 0,
			nil, []int{0, 1, 2}},
		{"one-on large-off single-tick spikes", 1, 9, 10, 0,
			[]int{10, 20, 30}, []int{9, 11, 19, 29}},
		{"end tick is exclusive", 1, 1, 0, 6,
			[]int{0, 2, 4}, []int{6, 7, 8, 100}},
		{"end tick cuts an on-window short", 3, 0, 2, 4,
			[]int{2, 3}, []int{0, 1, 4, 5}},
		{"end tick at start never fires", 2, 2, 5, 5,
			nil, []int{4, 5, 6}},
		{"end tick before start never fires", 2, 2, 5, 3,
			nil, []int{2, 5, 6, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pulse := &Pulsed{Src: &countSource{id: 1, n: 1}, OnTicks: c.on, OffTicks: c.off, StartTick: c.start, EndTick: c.end}
			d := NewSourcesDriver([]VictimSpec{{Port: "v"}}, [][]Source{{pulse}})
			for _, tick := range c.active {
				if got := len(d.AppendOffers(0, nil, tick, 1)); got != 1 {
					t.Errorf("tick %d: %d offers, want 1 (active)", tick, got)
				}
			}
			for _, tick := range c.inactive {
				if got := len(d.AppendOffers(0, nil, tick, 1)); got != 0 {
					t.Errorf("tick %d: %d offers, want 0 (inactive)", tick, got)
				}
			}
		})
	}
}

// replayTimes builds a one-prefix-per-record MRT capture with the given
// offsets from a fixed base time.
func replayTimes(t testing.TB, offsets []time.Duration) []byte {
	t.Helper()
	base := time.Unix(1700000000, 0)
	peerIP := netip.MustParseAddr("80.81.192.10")
	localIP := netip.MustParseAddr("80.81.192.1")
	var dump []byte
	var err error
	for _, off := range offsets {
		u := &bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001}}},
				NextHop: peerIP,
			},
			NLRI: []bgp.PathPrefix{{Prefix: netip.MustParsePrefix("203.0.113.0/24")}},
		}
		dump, err = bgppipe.AppendMRTMessage(dump, base.Add(off), 65001, 6695, peerIP, localIP, u, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return dump
}

// TestReplayDriverTickEdges pins the capture-time-to-tick mapping at
// its boundaries: elapsed time divides by the tick length exactly at
// tick boundaries, StartTick offsets every record, and a capture
// longer than the run is scheduled in full, never clamped.
func TestReplayDriverTickEdges(t *testing.T) {
	sec := func(ds ...float64) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d * float64(time.Second))
		}
		return out
	}
	cases := []struct {
		name      string
		offsets   []time.Duration
		cfg       ReplayConfig
		wantTicks []int // scheduled tick per record, in stream order
	}{
		{"long capture is not clamped", sec(0, 5, 500),
			ReplayConfig{TickSeconds: 1},
			[]int{0, 5, 500}},
		{"start tick offsets every record", sec(0, 100),
			ReplayConfig{TickSeconds: 1, StartTick: 4},
			[]int{4, 104}},
		{"exact boundary lands on the later tick", sec(0, 2),
			ReplayConfig{TickSeconds: 2},
			[]int{0, 1}},
		{"just under the boundary stays on the earlier tick", sec(0, 1.999),
			ReplayConfig{TickSeconds: 2},
			[]int{0, 0}},
		{"sub-second ticks stretch the capture", sec(0, 1, 2),
			ReplayConfig{TickSeconds: 0.5},
			[]int{0, 2, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Apply = func(bgppipe.Record) error { return nil }
			_, got := replay(t, bgppipe.NewMRTScanner(bytes.NewReader(replayTimes(t, c.offsets))), cfg)
			if len(got) != len(c.wantTicks) {
				t.Fatalf("scheduled %v, want %v", got, c.wantTicks)
			}
			for i := range got {
				if got[i] != c.wantTicks[i] {
					t.Fatalf("record %d scheduled on tick %d, want %d (all: %v)", i, got[i], c.wantTicks[i], got)
				}
			}
		})
	}
}
