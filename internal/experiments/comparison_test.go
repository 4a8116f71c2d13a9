package experiments

import (
	"testing"

	"stellar/internal/mitigation"
)

func TestCompareMitigationsShape(t *testing.T) {
	r := CompareMitigations(DefaultCompareConfig())
	if len(r.Rows) != 5 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	advbh := rowOf(r, mitigation.AdvancedBlackholing)
	rtbh := rowOf(r, mitigation.RTBH)
	acl := rowOf(r, mitigation.ACL)
	fs := rowOf(r, mitigation.Flowspec)
	tss := rowOf(r, mitigation.TSS)

	// Advanced Blackholing: full benign delivery, no residual attack,
	// no congestion, no recurring cost.
	if advbh.BenignDeliveredFrac < 0.99 {
		t.Fatalf("AdvBH benign: %v", advbh.BenignDeliveredFrac)
	}
	if advbh.AttackResidualFrac > 0.01 || advbh.PortCongested || advbh.CostPerHour != 0 {
		t.Fatalf("AdvBH row: %+v", advbh)
	}

	// RTBH: collateral damage — honoring peers' benign traffic dies;
	// the non-honoring attack share remains and keeps congesting.
	if rtbh.BenignDeliveredFrac > advbh.BenignDeliveredFrac {
		t.Fatal("RTBH cannot beat AdvBH on benign delivery")
	}
	// Residual is measured post-congestion: the ~70% non-honoring attack
	// share still saturates the 1 Gbps port, so delivered attack sits at
	// the port ceiling (~1/3 of the 3 Gbps offered) — orders of
	// magnitude above Advanced Blackholing's ~0.
	if rtbh.AttackResidualFrac < 0.2 {
		t.Fatalf("RTBH residual: %v, want port-limited attack remaining", rtbh.AttackResidualFrac)
	}
	if rtbh.AttackResidualFrac < 100*advbh.AttackResidualFrac+0.1 {
		t.Fatalf("RTBH residual %v not >> AdvBH %v", rtbh.AttackResidualFrac, advbh.AttackResidualFrac)
	}
	if !rtbh.PortCongested {
		t.Fatal("RTBH should leave the port congested")
	}

	// ACL: the port still congests — benign delivery suffers upstream
	// of the filter.
	if !acl.PortCongested {
		t.Fatal("ACL should leave the port congested")
	}
	if acl.BenignDeliveredFrac > 0.5 {
		t.Fatalf("ACL benign: %v (should suffer congestion)", acl.BenignDeliveredFrac)
	}

	// Flowspec: no collateral damage on benign traffic (fine-grained),
	// but the refusing peers' attack share remains (port-limited, same
	// ceiling effect as RTBH).
	if fs.AttackResidualFrac < 0.2 {
		t.Fatalf("Flowspec residual: %v", fs.AttackResidualFrac)
	}
	if fs.BenignDeliveredFrac < rtbh.BenignDeliveredFrac {
		t.Fatal("Flowspec benign delivery must beat RTBH (no /32 collateral)")
	}

	// TSS: effective but billed.
	if tss.AttackResidualFrac > 0.05 {
		t.Fatalf("TSS residual: %v", tss.AttackResidualFrac)
	}
	if tss.CostPerHour <= 0 {
		t.Fatal("TSS must have recurring cost")
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestCombinedTSSEconomics(t *testing.T) {
	r := CombinedTSS(DefaultCompareConfig())
	// The pre-filter removes the bulk of the scrubbing bill...
	if r.SavingsFrac < 0.9 {
		t.Fatalf("savings: %v, want >90%%", r.SavingsFrac)
	}
	// ...without hurting benign delivery (it even improves: no detour
	// false positives).
	if r.CombinedBenignFrac < r.TSSAloneBenignFrac-0.01 {
		t.Fatalf("combined benign %v < alone %v", r.CombinedBenignFrac, r.TSSAloneBenignFrac)
	}
	// The scrubber still sees a bounded attack sample for analysis.
	if r.SampleToScrubberMbps <= 0 || r.SampleToScrubberMbps > 60 {
		t.Fatalf("sample: %v Mbps", r.SampleToScrubberMbps)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestCompareDeterministic(t *testing.T) {
	// Identical seeds reproduce the same outcome up to float summation
	// order (delivered-bytes maps are iterated unordered).
	a := CompareMitigations(DefaultCompareConfig())
	b := CompareMitigations(DefaultCompareConfig())
	const tol = 1e-9
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Technique != rb.Technique || ra.PortCongested != rb.PortCongested {
			t.Fatalf("row %d differs: %+v vs %+v", i, ra, rb)
		}
		if d := ra.BenignDeliveredFrac - rb.BenignDeliveredFrac; d > tol || d < -tol {
			t.Fatalf("row %d benign differs: %v vs %v", i, ra.BenignDeliveredFrac, rb.BenignDeliveredFrac)
		}
		if d := ra.AttackResidualFrac - rb.AttackResidualFrac; d > tol || d < -tol {
			t.Fatalf("row %d residual differs: %v vs %v", i, ra.AttackResidualFrac, rb.AttackResidualFrac)
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
