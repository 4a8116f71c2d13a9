package member

import (
	"math"
	"testing"

	"stellar/internal/netpkt"
)

func TestHonorsRTBH(t *testing.T) {
	cases := []struct {
		accepts, acts, want bool
	}{
		{true, true, true},
		{true, false, false},
		{false, true, false},
		{false, false, false},
	}
	for _, c := range cases {
		m := &Member{AcceptsMoreSpecifics: c.accepts, ActsOnBlackhole: c.acts}
		if got := m.HonorsRTBH(); got != c.want {
			t.Errorf("accepts=%v acts=%v -> %v, want %v", c.accepts, c.acts, got, c.want)
		}
	}
}

func TestMakePopulationIdentities(t *testing.T) {
	members := MakePopulation(PopulationConfig{N: 650, HonoringFraction: 0.3, PortCapacityBps: 1e10, Seed: 1})
	if len(members) != 650 {
		t.Fatalf("N: %d", len(members))
	}
	macs := make(map[netpkt.MAC]bool)
	asns := make(map[uint32]bool)
	for _, m := range members {
		if macs[m.MAC] {
			t.Fatalf("duplicate MAC %s", m.MAC)
		}
		macs[m.MAC] = true
		if asns[m.ASN] {
			t.Fatalf("duplicate ASN %d", m.ASN)
		}
		asns[m.ASN] = true
		if len(m.Prefixes) != 1 || !m.Prefixes[0].IsValid() {
			t.Fatalf("prefixes: %v", m.Prefixes)
		}
		if m.PortCapacityBps != 1e10 {
			t.Fatal("capacity")
		}
		if !m.BGPID.Is4() {
			t.Fatal("BGP ID")
		}
	}
}

func TestMakePopulationHonoringFraction(t *testing.T) {
	for _, frac := range []float64{0.0, 0.3, 0.7, 1.0} {
		members := MakePopulation(PopulationConfig{N: 400, HonoringFraction: frac, Seed: 7})
		honoring := 0
		for _, m := range members {
			if m.HonorsRTBH() {
				honoring++
			}
		}
		got := float64(honoring) / 400
		if math.Abs(got-frac) > 0.01 {
			t.Errorf("fraction %v: got %v", frac, got)
		}
	}
}

func TestMakePopulationDeterministic(t *testing.T) {
	a := MakePopulation(PopulationConfig{N: 100, HonoringFraction: 0.3, Seed: 42})
	b := MakePopulation(PopulationConfig{N: 100, HonoringFraction: 0.3, Seed: 42})
	for i := range a {
		if a[i].HonorsRTBH() != b[i].HonorsRTBH() || a[i].MAC != b[i].MAC {
			t.Fatalf("member %d differs across same-seed runs", i)
		}
	}
	c := MakePopulation(PopulationConfig{N: 100, HonoringFraction: 0.3, Seed: 43})
	diff := 0
	for i := range a {
		if a[i].HonorsRTBH() != c[i].HonorsRTBH() {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical honoring assignment")
	}
}

func TestMakePopulationUniquePrefixes(t *testing.T) {
	members := MakePopulation(PopulationConfig{N: 1000, Seed: 3})
	seen := make(map[string]bool)
	for _, m := range members {
		p := m.Prefixes[0].String()
		if seen[p] {
			t.Fatalf("duplicate prefix %s", p)
		}
		seen[p] = true
	}
}
