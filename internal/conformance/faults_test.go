package conformance

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"stellar/internal/engine"
)

// TestFaultProfilesDeterministic pins the acceptance contract of the fault
// engine: running a fault profile twice with the same seed must produce
// byte-identical reports — including the ordered injection log — so a chaos
// run is a reproducible artifact, not a flake source.
func TestFaultProfilesDeterministic(t *testing.T) {
	for _, name := range []string{"tcam-squeeze-degrade", "flap-mid-mitigation", "queue-stall-recovery", "replay-with-loss"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := Load(name)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			run := func() []byte {
				res, err := Run(p)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				data, err := json.Marshal(res.Report)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				return data
			}
			a, b := run(), run()
			if string(a) != string(b) {
				t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
			}
		})
	}
}

// TestFaultProfileRecordsInjections ensures a fault profile's report says
// what was done to the run: the injection log is present and ordered.
func TestFaultProfileRecordsInjections(t *testing.T) {
	p, err := Load("tcam-squeeze-degrade")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Report.Injections) < 2 {
		t.Fatalf("want at least squeeze reserve+release in the log, got %+v", res.Report.Injections)
	}
	for i, in := range res.Report.Injections {
		if in.Seq != i {
			t.Fatalf("injection log out of order at %d: %+v", i, in)
		}
	}
}

// TestValidateCatchesBadFaults covers the faults-section rejection paths.
func TestValidateCatchesBadFaults(t *testing.T) {
	base := func() *Profile {
		p, err := Load("tcam-squeeze-degrade")
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return p
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"unknown kind", func(p *Profile) { p.Faults.Injections[0].Kind = "gremlins" }},
		{"empty window", func(p *Profile) { p.Faults.Injections[0].To = p.Faults.Injections[0].From }},
		{"prob out of range", func(p *Profile) { p.Faults.Injections[0].Prob = 1.5 }},
		{"empty injections", func(p *Profile) { p.Faults.Injections = nil }},
		{"squeeze reserving nothing", func(p *Profile) {
			p.Faults.Injections[0] = FaultSpec{Kind: "tcam_squeeze", From: 1, To: 2}
		}},
		{"flap member out of range", func(p *Profile) {
			p.Faults.Injections[0] = FaultSpec{Kind: "session_flap", From: 1, To: 2, Member: p.Topology.Members}
		}},
		{"wire fault without replay", func(p *Profile) {
			p.Faults.Injections[0] = FaultSpec{Kind: "wire_drop", From: 0, To: 1}
		}},
		{"delay without depth", func(p *Profile) {
			p.Replay = &ReplaySpec{Records: []ReplayRecord{{Member: 0}}}
			p.Faults.Injections[0] = FaultSpec{Kind: "wire_delay", From: 0, To: 1}
		}},
		{"window past run", func(p *Profile) { p.Faults.Injections[0].From = p.Run.Ticks }},
		{"control fault without stellar", func(p *Profile) {
			off := false
			p.Topology.Stellar = &off
		}},
		{"degraded without stellar", func(p *Profile) {
			off := false
			p.Topology.Stellar = &off
			p.Faults = nil
			p.Events = nil
			p.Expect = []Expectation{{Kind: "degraded", SignalTick: 1, MaxTicks: 2}}
		}},
		{"retry zero attempts", func(p *Profile) { p.Topology.Retry = &RetrySpec{MaxAttempts: 0} }},
		{"negative degrade margin", func(p *Profile) { p.Topology.Degrade.MarginL34 = -1 }},
		{"negative install deadline", func(p *Profile) { p.Topology.InstallDeadlineSec = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatalf("validator accepted %s", tc.name)
			}
		})
	}
}

// logControl records each control tick into the shared timeline log.
type logControl struct {
	engine.Control
	log *[]string
}

func (c logControl) ControlTick(tick int, dt float64) float64 {
	*c.log = append(*c.log, fmt.Sprintf("%d:control", tick))
	return c.Control.ControlTick(tick, dt)
}

// TestInjectorEventsFireLastBeforeControl pins where the injector's tick
// windows land on the engine timeline: within a tick, after the
// profile's events and the replayed capture, and before the control
// plane processes the tick — so every window edge sees the tick's
// signals and precedes their processing.
func TestInjectorEventsFireLastBeforeControl(t *testing.T) {
	p, err := Load("replay-with-loss")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// A profile event on tick 2, where the capture's blackhole record
	// also lands.
	p.Events = append(p.Events, EventSpec{Tick: 2, Action: "announce_prefix", Member: 3})
	_, cfg, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var log []string // spine-only
	for i := range cfg.Events {
		ev := cfg.Events[i]
		cfg.Events[i].Do = func() error {
			log = append(log, fmt.Sprintf("%d:%s", ev.Tick, ev.Name))
			return ev.Do()
		}
	}
	cfg.Control = logControl{Control: cfg.Control, log: &log}
	if _, err := engine.New(cfg).Run(); err != nil {
		t.Fatal(err)
	}

	rank := func(entry string) int {
		name := entry[strings.IndexByte(entry, ':')+1:]
		switch {
		case strings.HasPrefix(name, "replay["):
			return 1
		case name == "faults":
			return 2
		case name == "control":
			return 3
		}
		return 0 // the profile's own events
	}
	for i := 1; i < len(log); i++ {
		prevTick, _, _ := strings.Cut(log[i-1], ":")
		tick, _, _ := strings.Cut(log[i], ":")
		if tick == prevTick && rank(log[i]) < rank(log[i-1]) {
			t.Fatalf("%q fired after %q\ntimeline: %v", log[i], log[i-1], log)
		}
	}
	var tick2 []string
	for _, entry := range log {
		if strings.HasPrefix(entry, "2:") {
			tick2 = append(tick2, entry)
		}
	}
	want := []string{"2:announce ", "2:replay[", "2:faults", "2:control"}
	if len(tick2) != len(want) {
		t.Fatalf("tick 2 timeline %v, want %v", tick2, want)
	}
	for i := range want {
		if !strings.HasPrefix(tick2[i], want[i]) {
			t.Fatalf("tick 2 timeline %v, want %v", tick2, want)
		}
	}
}
