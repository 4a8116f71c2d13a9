// Package experiments regenerates the tables and figures of the paper's
// evaluation. Run is the one way in: it runs a figure by the name Names
// lists under the shared Options and writes the rows/series the paper
// reports. Behind it, each figure has a driver that returns a result the
// shape assertions in the test suites read.
//
// The traffic figures are not wired here: their scenarios are the
// "paper-fig2c", "sec52-lab", "paper-fig3c", "paper-fig10c" and
// "paper-table1" conformance profiles, and fig2c, sec52, fig3c and fig10c
// project a conformance.Run of their profile. compare and combined-tss
// rerun "paper-table1" with one mitigation signal per technique and add
// the scrubbing model's arithmetic for TSS, whose detour never reaches
// the port. The other figures are models: fig3a and fig3b sample the
// paper's measured distributions, fig9's TCAM grid is a plain loop over
// the hardware model, fig10a fits the CPU model and fig10b replays a
// change trace through a bare controller.
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
	"io"
	"strings"

	"stellar/internal/conformance"
	"stellar/internal/mitigation"
)

// Options are the settings every figure takes.
type Options struct {
	// Seed replaces the figure's default seed; 0 keeps it. table1 and
	// fig9 have no randomness and ignore it.
	Seed uint64
	// Small runs the CI-sized variant where a figure has one: fewer
	// samples for fig3a and fig3b, a smaller grid unit for fig9, a
	// one-hour replay for fig10b and 120 members for fig3c and fig10c.
	// The other figures have one size.
	Small bool
}

// seed returns the seed override, or def when there is none.
func (o Options) seed(def uint64) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// result is a figure's outcome, rendered as the rows the paper reports.
type result interface{ Format() string }

// figures lists every figure in the paper's order: the order Names
// reports and `stellar-lab all` runs.
var figures = []struct {
	name string
	run  func(Options) (result, error)
}{
	{"table1", func(Options) (result, error) { return table1(), nil }},
	{"fig2c", onProfile("paper-fig2c", 0, fig2c)},
	{"fig3a", func(o Options) (result, error) { return fig3a(newFig3aConfig(o)) }},
	{"fig3b", func(o Options) (result, error) { return fig3b(newFig3bConfig(o)), nil }},
	{"fig3c", onProfile("paper-fig3c", 120, fig3c)},
	{"fig9", func(o Options) (result, error) { return fig9(newFig9Config(o)), nil }},
	{"fig10a", func(o Options) (result, error) { return fig10a(newFig10aConfig(o)) }},
	{"fig10b", func(o Options) (result, error) { return fig10b(newFig10bConfig(o)), nil }},
	{"fig10c", onProfile("paper-fig10c", 120, fig10c)},
	{"sec52", onProfile("sec52-lab", 0, sec52)},
	{"compare", onProfile("paper-table1", 0, compareMitigations)},
	{"combined-tss", onProfile("paper-table1", 0, combinedTSS)},
}

// onProfile runs a figure on the named conformance profile: the seed
// override replaces its topology seed, and the small scale resizes its
// population to smallMembers (0 keeps it at every scale).
func onProfile[R result](name string, smallMembers int, drive func(*conformance.Profile) (R, error)) func(Options) (result, error) {
	return func(o Options) (result, error) {
		p, err := conformance.Load(name)
		if err != nil {
			return nil, err
		}
		p.Topology.Seed = o.seed(p.Topology.Seed)
		if o.Small && smallMembers > 0 {
			p.Topology.Members = smallMembers
		}
		return drive(p)
	}
}

// Names lists the figures Run knows, in the paper's order.
func Names() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// Run runs the named figure under o and writes its rows to w.
func Run(name string, w io.Writer, o Options) error {
	for _, f := range figures {
		if f.name != name {
			continue
		}
		r, err := f.run(o)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, r.Format())
		return err
	}
	return fmt.Errorf("unknown experiment %q", name)
}

// formatTable renders rows of cells with padded columns.
func formatTable(header []string, rows [][]string) string {
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

// table1Result is the qualitative comparison of Table 1.
type table1Result struct {
	Matrix map[mitigation.Property]map[mitigation.Technique]mitigation.Rating
}

// table1 regenerates the paper's Table 1.
func table1() table1Result {
	return table1Result{Matrix: mitigation.Table1()}
}

// Format renders the matrix in the paper's row/column order.
func (r table1Result) Format() string {
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
		formatTable(header, rows)
}
