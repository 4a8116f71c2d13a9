package faults

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/core"
	"stellar/internal/hw"
)

// TestPlanValidateRejections covers the plan validator's rejection paths.
func TestPlanValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
	}{
		{"unknown kind", Fault{Kind: "gremlins", From: 0, To: 1}},
		{"empty window", Fault{Kind: KindQueueStall, From: 3, To: 3}},
		{"negative from", Fault{Kind: KindQueueStall, From: -1, To: 3}},
		{"prob out of range", Fault{Kind: KindInstallFail, From: 0, To: 1, Prob: 2}},
		{"bad error class", Fault{Kind: KindInstallFail, From: 0, To: 1, Error: "f9"}},
		{"negative max failures", Fault{Kind: KindInstallFail, From: 0, To: 1, MaxFailures: -1}},
		{"squeeze reserving nothing", Fault{Kind: KindTCAMSqueeze, From: 0, To: 1}},
		{"squeeze negative", Fault{Kind: KindTCAMSqueeze, From: 0, To: 1, ReserveMAC: -2}},
		{"flap without peer", Fault{Kind: KindSessionFlap, From: 0, To: 1}},
		{"delay without depth", Fault{Kind: KindWireDelay, From: 0, To: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Plan{Faults: []Fault{tc.f}}
			if err := p.Validate(); err == nil {
				t.Fatalf("validator accepted %+v", tc.f)
			}
		})
	}
	ok := Plan{Faults: []Fault{
		{Kind: KindInstallFail, From: 0, To: 5, Error: ErrorF1, MaxFailures: 2},
		{Kind: KindTCAMSqueeze, From: 1, To: 3, ReserveL34: 10},
		{Kind: KindSessionFlap, From: 2, To: 4, Peer: "AS64512"},
		{Kind: KindWireDelay, From: 0, To: 9, DelayMsgs: 2},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestOnTickWindowEdges drives overlapping squeeze and stall windows plus
// a flap, asserting the hooks see accumulated edges in tick order.
func TestOnTickWindowEdges(t *testing.T) {
	var calls []string
	inj, err := NewInjector(Plan{Faults: []Fault{
		{Kind: KindTCAMSqueeze, From: 1, To: 4, ReserveMAC: 5, ReserveL34: 10},
		{Kind: KindTCAMSqueeze, From: 2, To: 3, ReserveL34: 7},
		{Kind: KindQueueStall, From: 1, To: 3},
		{Kind: KindSessionFlap, From: 2, To: 4, Peer: "AS64512"},
	}}, Hooks{
		SetReserved: func(mac, l34 int) { calls = append(calls, fmt.Sprintf("reserve %d/%d", mac, l34)) },
		SetStalled:  func(s bool) { calls = append(calls, fmt.Sprintf("stalled %v", s)) },
		PeerDown:    func(p string) error { calls = append(calls, "down "+p); return nil },
		PeerUp:      func(p string) error { calls = append(calls, "up "+p); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick <= 5; tick++ {
		if err := inj.OnTick(tick); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	want := []string{
		"reserve 5/10", "stalled true", // tick 1
		"reserve 5/17", "down AS64512", // tick 2: second squeeze stacks
		"reserve 5/10", "stalled false", // tick 3: inner squeeze releases
		"reserve 0/0", "up AS64512", // tick 4
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("hook calls:\n got %v\nwant %v", calls, want)
	}
	log := inj.Injections()
	if len(log) != len(want) {
		t.Fatalf("injection log has %d entries, want %d: %+v", len(log), len(want), log)
	}
}

// TestOnTickFlapHookError propagates a failing flap hook as the tick's
// error so the engine aborts loudly instead of running a half-flapped run.
func TestOnTickFlapHookError(t *testing.T) {
	boom := errors.New("boom")
	inj, err := NewInjector(Plan{Faults: []Fault{
		{Kind: KindSessionFlap, From: 1, To: 2, Peer: "AS64512"},
	}}, Hooks{PeerDown: func(string) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.OnTick(1); !errors.Is(err, boom) {
		t.Fatalf("OnTick = %v, want %v", err, boom)
	}
}

// TestEventsDriveTheTickClock: Events yields one event per tick, in tick
// order, each announcing its tick to the install hook and firing that
// tick's window edges.
func TestEventsDriveTheTickClock(t *testing.T) {
	var stalled []bool
	inj, err := NewInjector(Plan{Faults: []Fault{
		{Kind: KindQueueStall, From: 1, To: 3},
		{Kind: KindInstallFail, From: 2, To: 3},
	}}, Hooks{SetStalled: func(s bool) { stalled = append(stalled, s) }})
	if err != nil {
		t.Fatal(err)
	}
	evs := inj.Events(4)
	if len(evs) != 4 {
		t.Fatalf("%d events for 4 ticks", len(evs))
	}
	var failed []int
	for i, ev := range evs {
		if ev.Tick != i {
			t.Fatalf("event %d is for tick %d", i, ev.Tick)
		}
		if err := ev.Do(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if inj.InstallHook(installChange("r"), 1, 0) != nil {
			failed = append(failed, i)
		}
	}
	if !reflect.DeepEqual(stalled, []bool{true, false}) || !reflect.DeepEqual(failed, []int{2}) {
		t.Fatalf("stall edges %v, failed installs on ticks %v; want [true false], [2]", stalled, failed)
	}
}

func installChange(id string) core.ConfigChange {
	return core.ConfigChange{Op: core.OpInstall, RuleID: id}
}

// TestInstallHookWindowBudgetAndClasses pins the install-failure
// semantics: only installs inside the window fail, MaxFailures bounds a
// transient fault, removals are always exempt, and the error class maps
// to the hardware error the controller buckets on.
func TestInstallHookWindowBudgetAndClasses(t *testing.T) {
	inj, err := NewInjector(Plan{Faults: []Fault{
		{Kind: KindInstallFail, From: 2, To: 5, Error: ErrorF1, MaxFailures: 2},
	}}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetTick(1)
	if err := inj.InstallHook(installChange("r"), 1, 0); err != nil {
		t.Fatalf("outside window: %v", err)
	}
	inj.SetTick(2)
	if err := inj.InstallHook(installChange("r"), 1, 0); !errors.Is(err, hw.ErrL34Exhausted) {
		t.Fatalf("first failure = %v, want F1", err)
	}
	if err := inj.InstallHook(core.ConfigChange{Op: core.OpRemove, RuleID: "r"}, 1, 0); err != nil {
		t.Fatalf("removal must be exempt: %v", err)
	}
	if err := inj.InstallHook(installChange("r"), 2, 0); !errors.Is(err, hw.ErrL34Exhausted) {
		t.Fatalf("second failure = %v, want F1", err)
	}
	if err := inj.InstallHook(installChange("r"), 3, 0); err != nil {
		t.Fatalf("budget spent, install must pass: %v", err)
	}

	// Error-class mapping.
	for class, want := range map[string]error{
		ErrorF1: hw.ErrL34Exhausted, ErrorF2: hw.ErrMACExhausted,
		ErrorQoS: hw.ErrQoSPoliciesExhausted, ErrorTransient: ErrInjected,
	} {
		inj2, err := NewInjector(Plan{Faults: []Fault{
			{Kind: KindInstallFail, From: 0, To: 1, Error: class},
		}}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if got := inj2.InstallHook(installChange("r"), 1, 0); !errors.Is(got, want) {
			t.Fatalf("class %q: got %v, want %v", class, got, want)
		}
	}
}

// sliceSource yields a fixed record list.
type sliceSource struct {
	recs []bgppipe.Record
	i    int
}

func (s *sliceSource) Next() (bgppipe.Record, error) {
	if s.i >= len(s.recs) {
		return bgppipe.Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

func recordsNamed(names ...string) []bgppipe.Record {
	out := make([]bgppipe.Record, len(names))
	for i, n := range names {
		out[i] = bgppipe.Record{Peer: n, Msg: &bgp.Keepalive{}}
	}
	return out
}

func drainPeers(t *testing.T, src bgppipe.RecordSource) []string {
	t.Helper()
	var out []string
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec.Peer)
	}
}

// TestFilterSourceDropDupDelay covers the replay filter: drop removes a
// record, duplicate re-emits it once (the duplicate is not re-faulted),
// delay holds it back DelayMsgs records and flushes the tail in order
// at EOF — and each injection is logged once.
func TestFilterSourceDropDupDelay(t *testing.T) {
	mk := func(faults ...Fault) *Injector {
		inj, err := NewInjector(Plan{Faults: faults}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	cases := []struct {
		name  string
		fault Fault
		want  []string
		logs  int
	}{
		{"drop", Fault{Kind: KindWireDrop, From: 1, To: 3}, []string{"a", "d"}, 2},
		{"duplicate", Fault{Kind: KindWireDuplicate, From: 1, To: 2}, []string{"a", "b", "b", "c", "d"}, 1},
		{"delay", Fault{Kind: KindWireDelay, From: 0, To: 4, DelayMsgs: 2}, []string{"a", "b", "c", "d"}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := mk(tc.fault)
			src := inj.FilterSource(&sliceSource{recs: recordsNamed("a", "b", "c", "d")})
			if got := drainPeers(t, src); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			if n := len(inj.Injections()); n != tc.logs {
				t.Fatalf("injection log has %d entries, want %d", n, tc.logs)
			}
		})
	}
	// Delay actually reorders when new records keep arriving.
	inj := mk(Fault{Kind: KindWireDelay, From: 0, To: 1, DelayMsgs: 1})
	src := inj.FilterSource(&sliceSource{recs: recordsNamed("a", "b", "c")})
	// "a" held; "b" passes; after "b", a is still held (depth 1 exceeded
	// only when a second record is held) — flushed at EOF.
	if got := drainPeers(t, src); !reflect.DeepEqual(got, []string{"b", "c", "a"}) {
		t.Fatalf("reorder got %v", got)
	}
}

// TestInjectionLogDeterministic pins the reproducibility contract: two
// injectors over the same plan, driven identically, log identically —
// including probabilistic draws.
func TestInjectionLogDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Faults: []Fault{
		{Kind: KindInstallFail, From: 0, To: 50, Prob: 0.5},
		{Kind: KindTCAMSqueeze, From: 5, To: 20, ReserveL34: 3},
	}}
	drive := func() []Injection {
		inj, err := NewInjector(plan, Hooks{SetReserved: func(int, int) {}})
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 30; tick++ {
			inj.SetTick(tick)
			if err := inj.OnTick(tick); err != nil {
				t.Fatal(err)
			}
			_ = inj.InstallHook(installChange(fmt.Sprintf("r%d", tick)), 1, float64(tick))
		}
		return inj.Injections()
	}
	a, b := drive(), drive()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan, different logs:\n%+v\n%+v", a, b)
	}
	// The probabilistic fault must actually have both fired and skipped.
	fails := 0
	for _, in := range a {
		if in.Kind == KindInstallFail {
			fails++
		}
	}
	if fails == 0 || fails == 30 {
		t.Fatalf("prob 0.5 fault fired %d/30 times — draw stream suspect", fails)
	}
}
