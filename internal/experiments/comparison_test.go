package experiments

import (
	"runtime"
	"testing"

	"stellar/internal/conformance"
	"stellar/internal/member"
	"stellar/internal/mitigation"
)

// compareSeeds are the profile's default seed and three more.
var compareSeeds = []uint64{23, 9, 1, 42}

// table1Profile loads "paper-table1" at the given seed.
func table1Profile(t *testing.T, seed uint64) *conformance.Profile {
	t.Helper()
	p, err := conformance.Load("paper-table1")
	if err != nil {
		t.Fatal(err)
	}
	p.Topology.Seed = seed
	return p
}

func TestCompareMitigationsShape(t *testing.T) {
	for _, seed := range compareSeeds {
		r, err := CompareMitigations(table1Profile(t, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkCompareShape(t, seed, r)
	}
}

func checkCompareShape(t *testing.T, seed uint64, r CompareResult) {
	t.Helper()
	if len(r.Rows) != 5 {
		t.Fatalf("seed %d: rows: %d", seed, len(r.Rows))
	}
	advbh := rowOf(r, mitigation.AdvancedBlackholing)
	rtbh := rowOf(r, mitigation.RTBH)
	acl := rowOf(r, mitigation.ACL)
	fs := rowOf(r, mitigation.Flowspec)
	tss := rowOf(r, mitigation.TSS)

	// Advanced Blackholing: full benign delivery, no residual attack,
	// no congestion, no recurring cost.
	if advbh.BenignDeliveredFrac < 0.99 {
		t.Fatalf("seed %d: AdvBH benign: %v", seed, advbh.BenignDeliveredFrac)
	}
	if advbh.AttackResidualFrac > 0.01 || advbh.PortCongested || advbh.CostPerHour != 0 {
		t.Fatalf("seed %d: AdvBH row: %+v", seed, advbh)
	}

	// RTBH: collateral damage — honoring peers' benign traffic dies;
	// the non-honoring attack share remains and keeps congesting.
	if rtbh.BenignDeliveredFrac > advbh.BenignDeliveredFrac {
		t.Fatalf("seed %d: RTBH cannot beat AdvBH on benign delivery", seed)
	}
	// Residual is measured post-congestion: the ~70% non-honoring attack
	// share still saturates the 1 Gbps port, so delivered attack sits at
	// the port ceiling (~1/3 of the 3 Gbps offered) — orders of
	// magnitude above Advanced Blackholing's ~0.
	if rtbh.AttackResidualFrac < 0.2 {
		t.Fatalf("seed %d: RTBH residual: %v, want port-limited attack remaining", seed, rtbh.AttackResidualFrac)
	}
	if rtbh.AttackResidualFrac < 100*advbh.AttackResidualFrac+0.1 {
		t.Fatalf("seed %d: RTBH residual %v not >> AdvBH %v", seed, rtbh.AttackResidualFrac, advbh.AttackResidualFrac)
	}
	if !rtbh.PortCongested {
		t.Fatalf("seed %d: RTBH should leave the port congested", seed)
	}

	// ACL: the port still congests — benign delivery suffers upstream
	// of the filter.
	if !acl.PortCongested {
		t.Fatalf("seed %d: ACL should leave the port congested", seed)
	}
	if acl.BenignDeliveredFrac > 0.5 {
		t.Fatalf("seed %d: ACL benign: %v (should suffer congestion)", seed, acl.BenignDeliveredFrac)
	}

	// Flowspec: no collateral damage on benign traffic (fine-grained),
	// but the refusing peers' attack share remains (port-limited, same
	// ceiling effect as RTBH).
	if fs.AttackResidualFrac < 0.2 {
		t.Fatalf("seed %d: Flowspec residual: %v", seed, fs.AttackResidualFrac)
	}
	if fs.BenignDeliveredFrac < rtbh.BenignDeliveredFrac {
		t.Fatalf("seed %d: Flowspec benign delivery must beat RTBH (no /32 collateral)", seed)
	}

	// TSS: effective but billed.
	if tss.AttackResidualFrac > 0.05 {
		t.Fatalf("seed %d: TSS residual: %v", seed, tss.AttackResidualFrac)
	}
	if tss.CostPerHour <= 0 {
		t.Fatalf("seed %d: TSS must have recurring cost", seed)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestCombinedTSSEconomics(t *testing.T) {
	for _, seed := range compareSeeds {
		r, err := CombinedTSS(table1Profile(t, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The pre-filter removes the bulk of the scrubbing bill...
		if r.SavingsFrac < 0.9 {
			t.Fatalf("seed %d: savings: %v, want >90%%", seed, r.SavingsFrac)
		}
		// ...without hurting benign delivery (it even improves: no detour
		// false positives).
		if r.CombinedBenignFrac < r.TSSAloneBenignFrac-0.01 {
			t.Fatalf("seed %d: combined benign %v < alone %v", seed, r.CombinedBenignFrac, r.TSSAloneBenignFrac)
		}
		// The scrubber still sees a bounded attack sample for analysis.
		if r.SampleToScrubberMbps <= 0 || r.SampleToScrubberMbps > 60 {
			t.Fatalf("seed %d: sample: %v Mbps", seed, r.SampleToScrubberMbps)
		}
		if r.Format() == "" {
			t.Fatal("empty format")
		}
	}
}

// TestCompareDeterministic pins that the tables are a function of the
// profile alone: two runs, one of them single-threaded, print the same
// bytes.
func TestCompareDeterministic(t *testing.T) {
	render := func() string {
		p := table1Profile(t, 23)
		c, err := CompareMitigations(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := CombinedTSS(p)
		if err != nil {
			t.Fatal(err)
		}
		return c.Format() + s.Format()
	}
	a := render()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if b := render(); a != b {
		t.Fatalf("output differs between runs:\n%s\nvs\n%s", a, b)
	}
}

// TestFlowspecCoversTheRTBHHonoringPeers pins the fairness of the
// comparison: the Flowspec row's per-peer drops cover exactly the
// members that null-route the victim's /32 in the RTBH row.
func TestFlowspecCoversTheRTBHHonoringPeers(t *testing.T) {
	p := table1Profile(t, 23)
	covered := make(map[int]bool)
	for _, ev := range flowspecEvents(p) {
		if ev.Scope != conformance.ScopePerPeer || ev.Peers.Count != 1 {
			t.Fatalf("flowspec event covers %+v, want one peer", ev.Peers)
		}
		covered[ev.Peers.From] = true
	}
	if len(covered) == 0 {
		t.Fatal("no peer accepts the FlowSpec rule")
	}

	q := *p
	q.Channel, q.Events = conformance.ChannelRTBH, []conformance.EventSpec{{Action: "rtbh"}}
	run, err := conformance.Run(&q)
	if err != nil {
		t.Fatal(err)
	}
	members := member.MakePopulation(member.PopulationConfig{
		N: p.Topology.Members, HonoringFraction: p.Topology.HonoringFraction, Seed: p.Topology.Seed,
	})
	target := members[p.Victims[0].Member].Prefixes[0].Addr().Next()
	for i, m := range members {
		if got := run.IXP.NullRouted(m.Name, target); got != covered[i] {
			t.Errorf("member %d (%s): null-routed %v, flowspec-covered %v", i, m.Name, got, covered[i])
		}
	}
}

// rowOf returns the row for a technique.
func rowOf(r CompareResult, t mitigation.Technique) CompareRow {
	for _, row := range r.Rows {
		if row.Technique == t {
			return row
		}
	}
	return CompareRow{}
}
