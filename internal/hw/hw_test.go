package hw

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"stellar/internal/stats"
)

func TestAllocateRelease(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 2, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 4})
	if err := r.Allocate(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	mac, l34 := r.Totals()
	if mac != 3 || l34 != 2 {
		t.Fatalf("totals: %d %d", mac, l34)
	}
	p, err := r.Port(0)
	if err != nil || p.MACFilters != 3 || p.L34Criteria != 2 || p.QoSPolicies != 1 {
		t.Fatalf("port: %+v %v", p, err)
	}
	if err := r.Release(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	mac, l34 = r.Totals()
	if mac != 0 || l34 != 0 {
		t.Fatalf("totals after release: %d %d", mac, l34)
	}
}

// TestAddPort grows the port table: the new index allocates where it
// was out of range before, and the system-wide budgets are unchanged.
func TestAddPort(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 4, MACFiltersTotal: 4, QoSPoliciesPerPort: 4})
	if err := r.Allocate(1, 1, 1); err != ErrUnknownPort {
		t.Fatalf("port 1 before AddPort: %v", err)
	}
	if idx := r.AddPort(); idx != 1 {
		t.Fatalf("AddPort: %d", idx)
	}
	if err := r.Allocate(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if l := r.Limits(); l.Ports != 2 || l.L34CriteriaTotal != 4 || l.MACFiltersTotal != 4 {
		t.Fatalf("limits: %+v", l)
	}
	if err := r.Allocate(0, 1, 4); err != ErrL34Exhausted {
		t.Fatalf("budget after AddPort: %v, want F1", err)
	}
	if s := r.Snapshot(); len(s.Ports) != 2 || s.Ports[1].QoSPolicies != 1 {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestAllocateF1Precedence(t *testing.T) {
	// When both budgets would be exceeded, F1 (L3-L4) is reported, as in
	// Figure 9's grid rendering.
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 1, MACFiltersTotal: 1, QoSPoliciesPerPort: 10})
	if err := r.Allocate(0, 5, 5); err != ErrL34Exhausted {
		t.Fatalf("err = %v, want F1", err)
	}
}

func TestAllocateF2(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 100, MACFiltersTotal: 2, QoSPoliciesPerPort: 10})
	if err := r.Allocate(0, 3, 1); err != ErrMACExhausted {
		t.Fatalf("err = %v, want F2", err)
	}
}

func TestAllocateQoSSlots(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 100, MACFiltersTotal: 100, QoSPoliciesPerPort: 2})
	if err := r.Allocate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Allocate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Allocate(0, 1, 1); err != ErrQoSPoliciesExhausted {
		t.Fatalf("err = %v, want QoS slots exhausted", err)
	}
}

func TestAllocateAtomicOnFailure(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 10, MACFiltersTotal: 5, QoSPoliciesPerPort: 10})
	_ = r.Allocate(0, 5, 5)
	if err := r.Allocate(0, 1, 1); err != ErrMACExhausted {
		t.Fatalf("err = %v", err)
	}
	mac, l34 := r.Totals()
	if mac != 5 || l34 != 5 {
		t.Fatalf("failed allocation mutated state: %d %d", mac, l34)
	}
}

func TestAllocateErrors(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 10})
	if err := r.Allocate(5, 1, 1); err != ErrUnknownPort {
		t.Fatalf("port: %v", err)
	}
	if err := r.Allocate(0, -1, 0); err == nil {
		t.Fatal("negative allocation accepted")
	}
	if err := r.Release(0, 1, 1); err == nil {
		t.Fatal("over-release accepted")
	}
	if err := r.Release(9, 0, 0); err != ErrUnknownPort {
		t.Fatalf("release port: %v", err)
	}
	if _, err := r.Port(9); err != ErrUnknownPort {
		t.Fatalf("Port: %v", err)
	}
}

func TestHeadroom(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 10, MACFiltersTotal: 20, QoSPoliciesPerPort: 10})
	_ = r.Allocate(0, 4, 3)
	mac, l34 := r.Headroom()
	if mac != 16 || l34 != 7 {
		t.Fatalf("headroom: %d %d", mac, l34)
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: sum of per-port allocations always equals totals, and
	// totals never exceed budgets.
	f := func(ops []uint8) bool {
		lim := Limits{Ports: 4, L34CriteriaTotal: 50, MACFiltersTotal: 80, QoSPoliciesPerPort: 10}
		r := NewEdgeRouter(lim)
		type alloc struct{ port, mac, l34 int }
		var live []alloc
		for _, op := range ops {
			port := int(op) % 4
			mac := int(op>>2) % 5
			l34 := int(op>>4) % 4
			if op&0x80 != 0 && len(live) > 0 {
				a := live[len(live)-1]
				live = live[:len(live)-1]
				if r.Release(a.port, a.mac, a.l34) != nil {
					return false
				}
			} else if r.Allocate(port, mac, l34) == nil {
				live = append(live, alloc{port, mac, l34})
			}
		}
		var sumMAC, sumL34 int
		for p := 0; p < 4; p++ {
			pa, _ := r.Port(p)
			sumMAC += pa.MACFilters
			sumL34 += pa.L34Criteria
		}
		mac, l34 := r.Totals()
		return mac == sumMAC && l34 == sumL34 &&
			mac <= lim.MACFiltersTotal && l34 <= lim.L34CriteriaTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultLimitsFeasibilityGrid(t *testing.T) {
	// The calibrated budgets must reproduce Figure 9's regions. Using
	// the analytic totals: active ports = adoption * 350, each with
	// m MAC filters and x L3-L4 criteria.
	lim := DefaultEdgeRouterLimits(350, 1) // N = 1 unit for exact grid math
	check := func(adoption float64, macPerPort, l34PerPort int) string {
		active := int(adoption * 350)
		if active*l34PerPort > lim.L34CriteriaTotal {
			return "F1"
		}
		if active*macPerPort > lim.MACFiltersTotal {
			return "F2"
		}
		return "OK"
	}
	// Figure 9(a): 20% adoption, everything OK.
	for _, mac := range []int{0, 2, 4, 6, 8, 10} {
		for _, l34 := range []int{0, 1, 2, 3, 4} {
			if got := check(0.20, mac, l34); got != "OK" {
				t.Errorf("20%% (%dN MAC, %dN L3-L4) = %s, want OK", mac, l34, got)
			}
		}
	}
	// Figure 9(b): 60% — F1 on the 4N column, F2 on the 10N row elsewhere.
	for _, mac := range []int{0, 2, 4, 6, 8, 10} {
		if got := check(0.60, mac, 4); got != "F1" {
			t.Errorf("60%% (%dN, 4N) = %s, want F1", mac, got)
		}
	}
	for _, l34 := range []int{0, 1, 2, 3} {
		if got := check(0.60, 10, l34); got != "F2" {
			t.Errorf("60%% (10N, %dN) = %s, want F2", l34, got)
		}
		if got := check(0.60, 8, l34); got != "OK" {
			t.Errorf("60%% (8N, %dN) = %s, want OK", l34, got)
		}
	}
	// Figure 9(c): 100% — F1 for L3-L4 >= 2N; F2 for MAC >= 6N at low L3-L4.
	for _, l34 := range []int{2, 3, 4} {
		for _, mac := range []int{0, 2, 4, 6, 8, 10} {
			if got := check(1.0, mac, l34); got != "F1" {
				t.Errorf("100%% (%dN, %dN) = %s, want F1", mac, l34, got)
			}
		}
	}
	for _, l34 := range []int{0, 1} {
		for _, mac := range []int{6, 8, 10} {
			if got := check(1.0, mac, l34); got != "F2" {
				t.Errorf("100%% (%dN, %dN) = %s, want F2", mac, l34, got)
			}
		}
		for _, mac := range []int{0, 2, 4} {
			if got := check(1.0, mac, l34); got != "OK" {
				t.Errorf("100%% (%dN, %dN) = %s, want OK", mac, l34, got)
			}
		}
	}
}

func TestCPUModelMaxRate(t *testing.T) {
	m := NewCPUModel(DefaultEdgeRouterLimits(350, RTBHUnitN), 0)
	got := m.MaxUpdateRate()
	if math.Abs(got-4.333) > 0.01 {
		t.Fatalf("MaxUpdateRate = %v, want ~4.33 (paper median)", got)
	}
	if u := m.Usage(got); math.Abs(u-15.0) > 1e-9 {
		t.Fatalf("Usage at max rate = %v, want 15%%", u)
	}
}

func TestCPUModelLinearity(t *testing.T) {
	m := CPUModel{BaselinePct: 2, PerUpdatePct: 3}
	if m.Usage(0) != 2 || m.Usage(1) != 5 || m.Usage(4) != 14 {
		t.Fatalf("usage: %v %v %v", m.Usage(0), m.Usage(1), m.Usage(4))
	}
}

func TestCPUModelSampleClamped(t *testing.T) {
	m := CPUModel{BaselinePct: 99, PerUpdatePct: 10, NoiseStd: 50}
	rng := stats.NewRand(1)
	for i := 0; i < 1000; i++ {
		v := m.Sample(1, rng)
		if v < 0 || v > 100 {
			t.Fatalf("sample out of range: %v", v)
		}
	}
}

func TestCPUModelDegenerate(t *testing.T) {
	if (CPUModel{PerUpdatePct: 0}).MaxUpdateRate() != 0 {
		t.Fatal("zero slope")
	}
	if (CPUModel{BaselinePct: 20, PerUpdatePct: 1, LimitPct: 15}).MaxUpdateRate() != 0 {
		t.Fatal("baseline above limit")
	}
}

func TestCPUModelNoiseRecovery(t *testing.T) {
	// Fitting noisy samples must recover the true slope within tolerance
	// — this is exactly the Figure 10(a) analysis.
	lim := DefaultEdgeRouterLimits(350, RTBHUnitN)
	m := NewCPUModel(lim, 0.5)
	rng := stats.NewRand(42)
	var xs, ys []float64
	for rate := 1; rate <= 5; rate++ {
		for i := 0; i < 50; i++ {
			xs = append(xs, float64(rate))
			ys = append(ys, m.Sample(float64(rate), rng))
		}
	}
	fit, err := statsLinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-lim.CPUPerUpdatePct) > 0.2 {
		t.Fatalf("recovered slope %v, want ~%v", fit.Slope, lim.CPUPerUpdatePct)
	}
}

// statsLinearFit avoids an import cycle false alarm in reviews; it simply
// forwards to the stats package.
func statsLinearFit(xs, ys []float64) (stats.Linear, error) { return stats.LinearFit(xs, ys) }

func BenchmarkAllocateRelease(b *testing.B) {
	r := NewEdgeRouter(DefaultEdgeRouterLimits(350, RTBHUnitN))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		port := i % 350
		if err := r.Allocate(port, 1, 2); err != nil {
			b.Fatal(err)
		}
		if err := r.Release(port, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSnapshotInvariant(t *testing.T) {
	// Invariant: an arbitrary sequence of successful Allocate calls followed
	// by their matching Releases restores the Snapshot exactly.
	r := NewEdgeRouter(Limits{Ports: 4, L34CriteriaTotal: 100, MACFiltersTotal: 100, QoSPoliciesPerPort: 8})
	before := r.Snapshot()

	rng := stats.NewRand(42)
	type alloc struct{ port, mac, l34 int }
	var held []alloc
	for i := 0; i < 200; i++ {
		a := alloc{port: rng.Intn(4), mac: rng.Intn(3), l34: rng.Intn(4)}
		if err := r.Allocate(a.port, a.mac, a.l34); err == nil {
			held = append(held, a)
		}
		// Interleave some releases so the walk isn't monotone.
		if len(held) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(held))
			h := held[j]
			if err := r.Release(h.port, h.mac, h.l34); err != nil {
				t.Fatalf("release %+v: %v", h, err)
			}
			held = append(held[:j], held[j+1:]...)
		}
	}
	mid := r.Snapshot()
	wantMAC, wantL34 := 0, 0
	perPort := make([]PortAlloc, 4)
	for _, h := range held {
		perPort[h.port].MACFilters += h.mac
		perPort[h.port].L34Criteria += h.l34
		perPort[h.port].QoSPolicies++
		wantMAC += h.mac
		wantL34 += h.l34
	}
	if mid.TotalMAC != wantMAC || mid.TotalL34 != wantL34 {
		t.Fatalf("mid totals %d/%d, want %d/%d", mid.TotalMAC, mid.TotalL34, wantMAC, wantL34)
	}
	for p := range perPort {
		if mid.Ports[p] != perPort[p] {
			t.Fatalf("mid port %d = %+v, want %+v", p, mid.Ports[p], perPort[p])
		}
	}
	if mid.HeadroomMAC != 100-wantMAC || mid.HeadroomL34 != 100-wantL34 {
		t.Fatalf("mid headroom %d/%d", mid.HeadroomMAC, mid.HeadroomL34)
	}

	for _, h := range held {
		if err := r.Release(h.port, h.mac, h.l34); err != nil {
			t.Fatalf("release %+v: %v", h, err)
		}
	}
	after := r.Snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("snapshot not restored:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 2, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 4})
	s := r.Snapshot()
	s.Ports[0].MACFilters = 99
	if p, _ := r.Port(0); p.MACFilters != 0 {
		t.Fatal("Snapshot shares port slice with router")
	}
}

func TestSetReservedSqueeze(t *testing.T) {
	r := NewEdgeRouter(Limits{Ports: 1, L34CriteriaTotal: 10, MACFiltersTotal: 10, QoSPoliciesPerPort: 8})
	if err := r.Allocate(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	// Squeeze: only 1 L3-L4 criterion left effective.
	r.SetReserved(0, 6)
	if mac, l34 := r.Headroom(); mac != 8 || l34 != 1 {
		t.Fatalf("headroom under squeeze: %d/%d", mac, l34)
	}
	if err := r.Allocate(0, 0, 2); err != ErrL34Exhausted {
		t.Fatalf("want F1 under squeeze, got %v", err)
	}
	if err := r.Allocate(0, 0, 1); err != nil {
		t.Fatalf("within squeezed budget: %v", err)
	}
	// Existing allocations survive the squeeze and release normally.
	r.SetReserved(0, 10)
	if mac, l34 := r.Headroom(); mac != 8 || l34 != -4 {
		t.Fatalf("oversubscribed headroom: %d/%d", mac, l34)
	}
	if err := r.Release(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	r.SetReserved(-5, -5) // clamps to zero
	if mac, l34 := r.Reserved(); mac != 0 || l34 != 0 {
		t.Fatalf("reserved after clamp: %d/%d", mac, l34)
	}
	s := r.Snapshot()
	if s.ReservedL34 != 0 || s.HeadroomL34 != 9 {
		t.Fatalf("snapshot after release: %+v", s)
	}
}
