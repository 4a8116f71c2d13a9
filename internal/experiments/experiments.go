// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver builds its workload from the substrate
// packages, runs it, and returns a result struct that (a) formats to the
// same rows/series the paper reports and (b) exposes the numbers the
// shape assertions in the test suites check.
//
// The traffic experiments are not wired here: their scenarios are the
// "sec52-lab", "paper-fig3c", "paper-fig10c" and "paper-table1"
// conformance profiles, and Sec52/Fig3c/Fig10c project a conformance.Run
// of the profile they are given. CompareMitigations and CombinedTSS
// rerun "paper-table1" with one mitigation signal per technique and add
// the scrubbing model's arithmetic for TSS, whose detour never reaches
// the port. Fig9's TCAM grid has no traffic and is a plain loop over
// the hardware model.
//
// Absolute numbers differ from the paper (our substrate is a simulator,
// not DE-CIX hardware); the shapes — who wins, by what factor, where the
// feasibility boundaries fall — are asserted in experiments_test.go.
//
// The drivers are single-threaded but the substrate underneath is not:
// ixp.EgressTick and fabric.Tick fan member ports out over the engine's
// worker pool, and ports classify offers through the compiled lock-free
// classifier with the traffic generators' pre-hashed flow keys. Results stay
// bit-identical across GOMAXPROCS settings — per-port computation is
// sequential and merges are keyed by port name — so every figure here is
// reproducible at any parallelism.
package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/mitigation"
)

// FormatTable renders rows of cells with padded columns.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Table1Result is the qualitative comparison of Table 1.
type Table1Result struct {
	Matrix map[mitigation.Property]map[mitigation.Technique]mitigation.Rating
}

// Table1 regenerates the paper's Table 1.
func Table1() Table1Result {
	return Table1Result{Matrix: mitigation.Table1()}
}

// Format renders the matrix in the paper's row/column order.
func (r Table1Result) Format() string {
	techs := []mitigation.Technique{
		mitigation.TSS, mitigation.ACL, mitigation.RTBH,
		mitigation.Flowspec, mitigation.AdvancedBlackholing,
	}
	header := []string{"Property"}
	for _, tech := range techs {
		header = append(header, tech.String())
	}
	var rows [][]string
	for p := mitigation.Granularity; p <= mitigation.Costs; p++ {
		row := []string{p.String()}
		for _, tech := range techs {
			row = append(row, r.Matrix[p][tech].String())
		}
		rows = append(rows, row)
	}
	return "Table 1: Advanced Blackholing vs. DDoS mitigation solutions (+ advantage, - disadvantage, o neutral)\n" +
		FormatTable(header, rows)
}
