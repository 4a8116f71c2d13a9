package conformance

import (
	"encoding/json"
	"math"
	"testing"
)

// TestMatrix runs every embedded profile and asserts all of its declarative
// expectations hold. Each profile is an independent subtest so the matrix
// parallelizes and a failure prints the measured-vs-expected table for that
// scenario only.
func TestMatrix(t *testing.T) {
	profiles, err := Profiles()
	if err != nil {
		t.Fatalf("load profiles: %v", err)
	}
	if len(profiles) < 12 {
		t.Fatalf("conformance matrix has %d profiles, want >= 12", len(profiles))
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, c := range res.Report.Checks {
				if c.Pass {
					t.Logf("%s", c)
				} else {
					t.Errorf("%s", c)
				}
			}
		})
	}
}

// TestChannelEquivalence pins the cross-channel contract: the equiv-community
// and equiv-flowspec profiles are byte-identical scenarios apart from the
// mitigation channel, and both channels normalize to the same mitctl.Spec, so
// the resulting victim series must match sample for sample.
func TestChannelEquivalence(t *testing.T) {
	com, err := Load("equiv-community")
	if err != nil {
		t.Fatalf("load equiv-community: %v", err)
	}
	fs, err := Load("equiv-flowspec")
	if err != nil {
		t.Fatalf("load equiv-flowspec: %v", err)
	}
	rc, err := Run(com)
	if err != nil {
		t.Fatalf("run equiv-community: %v", err)
	}
	rf, err := Run(fs)
	if err != nil {
		t.Fatalf("run equiv-flowspec: %v", err)
	}
	if len(rc.Series) != 1 || len(rf.Series) != 1 {
		t.Fatalf("want 1 victim series each, got %d and %d", len(rc.Series), len(rf.Series))
	}
	cs, fss := rc.Series[0].Samples, rf.Series[0].Samples
	if len(cs) != len(fss) {
		t.Fatalf("sample count mismatch: community %d, flowspec %d", len(cs), len(fss))
	}
	for i := range cs {
		a, b := cs[i], fss[i]
		if a.OfferedBps != b.OfferedBps || a.DeliveredBps != b.DeliveredBps ||
			a.RuleDroppedBps != b.RuleDroppedBps || a.ActivePeers != b.ActivePeers {
			t.Fatalf("tick %d diverges: community %+v, flowspec %+v", a.Tick, a, b)
		}
	}
}

// TestDecodeRejectsUnknownFields ensures profile files can't silently carry
// typo'd keys: the decoder must fail on anything outside the schema.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"name":"x","channel":"api","topology":{"members":4},"run":{"ticks":1},"victims":[{"member":0,"sources":[{"kind":"web","rate_bps":1,"peers":{"from":1,"count":1}}]}],"expectt":[]}`))
	if err == nil {
		t.Fatal("decoder accepted an unknown field")
	}
}

// TestValidateCatchesBadProfiles covers the validator's main rejection paths
// table-style so schema drift keeps the error surface intact.
func TestValidateCatchesBadProfiles(t *testing.T) {
	base := func() *Profile {
		p, err := Load("api-drop")
		if err != nil {
			t.Fatalf("load api-drop: %v", err)
		}
		return p
	}
	// carpet swaps in the carpet-bombing profile (a 160-tick run) with
	// the given rotation window.
	carpet := func(start, end int) func(*Profile) {
		return func(p *Profile) {
			cp, err := Load("carpet-bombing")
			if err != nil {
				t.Fatalf("load carpet-bombing: %v", err)
			}
			cp.Carpet.StartTick, cp.Carpet.EndTick = start, end
			*p = *cp
		}
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"bad channel", func(p *Profile) { p.Channel = "smoke-signal" }},
		{"victim out of range", func(p *Profile) { p.Victims[0].Member = p.Topology.Members }},
		{"zero ticks", func(p *Profile) { p.Run.Ticks = 0 }},
		{"event past end", func(p *Profile) { p.Events[0].Tick = p.Run.Ticks }},
		{"bad proto", func(p *Profile) { p.Events[0].Match.Proto = "icmp" }},
		// -1 is fabric.AnyPort: it would compile to a UDP-wide drop.
		{"src port below range", func(p *Profile) { p.Events[0].Match.SrcPort = ptr(-1) }},
		// 65536 never matches on api but wraps to port 0 on community.
		{"dst port above range", func(p *Profile) { p.Events[0].Match.DstPort = ptr(65536) }},
		{"shape without rate", func(p *Profile) { p.Events[0].Effect = "shape"; p.Events[0].RateBps = 0 }},
		{"per-peer without peers", func(p *Profile) { p.Events[0].Scope = ScopePerPeer; p.Events[0].Peers = PeerRange{} }},
		{"expectation bad kind", func(p *Profile) { p.Expect[0].Kind = "vibes" }},
		{"expectation empty window", func(p *Profile) {
			p.Expect[0] = Expectation{Name: "w", Kind: "offered_bps", From: 10, To: 10, Min: f(0)}
		}},
		{"rtbh with mitigate event", func(p *Profile) { p.Channel = ChannelRTBH }},
		{"peer range end overflows", func(p *Profile) {
			p.Victims[0].Sources[0].Peers = PeerRange{From: math.MaxInt, Count: 1}
		}},
		{"trace segment longer than run", func(p *Profile) {
			p.Victims[0].Sources[0] = SourceSpec{Kind: "trace", RatesBps: []float64{1e9},
				SegmentTicks: p.Run.Ticks + 1, Peers: PeerRange{From: 1, Count: 1}}
		}},
		{"replay start before run", func(p *Profile) {
			p.Replay = &ReplaySpec{StartTick: -5, Records: []ReplayRecord{{Member: 1}}}
		}},
		{"replay start past end", func(p *Profile) {
			p.Replay = &ReplaySpec{StartTick: p.Run.Ticks, Records: []ReplayRecord{{Member: 1}}}
		}},
		{"carpet window inverted", carpet(90, 50)},
		{"carpet start before run", carpet(-40, 150)},
		{"carpet start past end", carpet(500, 0)},
		// Only attacks and pulse trains have a window; web and trace
		// would silently ignore one.
		{"web with a window", func(p *Profile) {
			p.Victims[0].Sources[0] = SourceSpec{Kind: "web", RateBps: 1e8, StartTick: 5, EndTick: 10,
				Peers: PeerRange{From: 1, Count: 1}}
		}},
		{"trace with a window", func(p *Profile) {
			p.Victims[0].Sources[0] = SourceSpec{Kind: "trace", RatesBps: []float64{1e9}, EndTick: 10,
				Peers: PeerRange{From: 1, Count: 1}}
		}},
		{"pulse window inverted", func(p *Profile) {
			inner := p.Victims[0].Sources[0]
			p.Victims[0].Sources[0] = SourceSpec{Kind: "pulse", OnTicks: 2, StartTick: 10, EndTick: 10, Src: &inner}
		}},
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

func f(v float64) *float64 { return &v }

func ptr(v int) *int { return &v }

// TestReportJSONRoundTrip keeps the CLI artifact stable: a report must encode
// to JSON and decode back without losing pass/fail state or measured values.
func TestReportJSONRoundTrip(t *testing.T) {
	p, err := Load("trace-replay")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	rep.add(res.Report)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Total != rep.Total || back.Passed != rep.Passed || back.Pass != rep.Pass {
		t.Fatalf("round trip changed counts: %+v vs %+v", back, rep)
	}
	for i, pr := range back.Profiles {
		for j, c := range pr.Checks {
			want := rep.Profiles[i].Checks[j].Measured
			if math.Abs(c.Measured-want) > math.Abs(want)*1e-12 {
				t.Fatalf("measured value drifted through JSON: %v vs %v", c.Measured, want)
			}
		}
	}
}
