package engine

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
)

// replayDump builds a four-record MRT capture with timestamps 0s, 1s,
// 2s and 10s after the epoch record.
func replayDump(t testing.TB) []byte {
	t.Helper()
	base := time.Unix(1700000000, 0)
	peerIP := netip.MustParseAddr("80.81.192.10")
	localIP := netip.MustParseAddr("80.81.192.1")
	var dump []byte
	var err error
	for i, offset := range []time.Duration{0, time.Second, 2 * time.Second, 10 * time.Second} {
		u := &bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001}}},
				NextHop: peerIP,
			},
			NLRI: []bgp.PathPrefix{{Prefix: netip.MustParsePrefix(
				[]string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24", "100.64.0.0/24"}[i])}},
		}
		dump, err = bgppipe.AppendMRTMessage(dump, base.Add(offset), 65001, 6695, peerIP, localIP, u, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return dump
}

// replay schedules src with ReplayEvents and runs every event in order,
// returning the events and the tick each record was applied on, in
// apply order.
func replay(t testing.TB, src bgppipe.RecordSource, cfg ReplayConfig) ([]Event, []int) {
	t.Helper()
	var cur int
	var ticks []int
	apply := cfg.Apply
	cfg.Apply = func(rec bgppipe.Record) error {
		ticks = append(ticks, cur)
		return apply(rec)
	}
	evs, err := ReplayEvents(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		cur = ev.Tick
		if err := ev.Do(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	return evs, ticks
}

// TestReplayDriverSchedule pins the capture-time-to-tick mapping: with
// 2s ticks, capture seconds 0,1,2,10 land on ticks Start+0, Start+0,
// Start+1, Start+5, grouped into one event per distinct tick, applied
// in stream order.
func TestReplayDriverSchedule(t *testing.T) {
	var applied []string
	evs, ticks := replay(t, bgppipe.NewMRTScanner(bytes.NewReader(replayDump(t))), ReplayConfig{
		StartTick:   5,
		TickSeconds: 2,
		Apply: func(rec bgppipe.Record) error {
			applied = append(applied, rec.Msg.(*bgp.Update).NLRI[0].Prefix.String())
			return nil
		},
	})
	wantTicks := []int{5, 6, 10}
	wantNames := []string{"replay[2]", "replay[1]", "replay[1]"}
	if len(evs) != len(wantTicks) {
		t.Fatalf("events: %d, want %d", len(evs), len(wantTicks))
	}
	for i, ev := range evs {
		if ev.Tick != wantTicks[i] || ev.Name != wantNames[i] {
			t.Fatalf("event %d = {Tick: %d, Name: %q}, want {%d, %q}",
				i, ev.Tick, ev.Name, wantTicks[i], wantNames[i])
		}
	}
	if want := fmt.Sprint([]int{5, 5, 6, 10}); fmt.Sprint(ticks) != want {
		t.Fatalf("records applied on ticks %v, want %s", ticks, want)
	}
	want := []string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/24", "100.64.0.0/24"}
	if fmt.Sprint(applied) != fmt.Sprint(want) {
		t.Fatalf("apply order %v, want %v", applied, want)
	}
}

// TestReplayDriverEmpty pins the degenerate cases: an empty capture
// schedules nothing, and a missing Apply or tick length is an error.
func TestReplayDriverEmpty(t *testing.T) {
	noop := func(bgppipe.Record) error { return nil }
	evs, err := ReplayEvents(bgppipe.NewMRTScanner(bytes.NewReader(nil)), ReplayConfig{TickSeconds: 1, Apply: noop})
	if err != nil || len(evs) != 0 {
		t.Fatalf("empty capture scheduled %d events (err %v)", len(evs), err)
	}
	if _, err := ReplayEvents(bgppipe.NewMRTScanner(bytes.NewReader(nil)), ReplayConfig{TickSeconds: 1}); err == nil {
		t.Fatal("nil Apply accepted")
	}
	if _, err := ReplayEvents(bgppipe.NewMRTScanner(bytes.NewReader(nil)), ReplayConfig{Apply: noop}); err == nil {
		t.Fatal("zero TickSeconds accepted")
	}
}
