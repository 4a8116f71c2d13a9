package experiments

import (
	"errors"
	"fmt"
	"strings"

	"stellar/internal/hw"
)

// fig9Config parameterizes the TCAM feasibility grids.
type fig9Config struct {
	// Ports is the edge router's member port count (>350 in the paper's
	// densest router).
	Ports int
	// N is the grid unit: the 95th percentile of concurrently active
	// RTBH rules per port.
	N int
	// Adoptions are the member adoption rates to evaluate (the paper's
	// 20%, 60% and 100% panels).
	Adoptions []float64
}

// newFig9Config mirrors the paper's panels; the small scale sets the
// grid unit to 2, which keeps every cell's label and allocates less.
func newFig9Config(o Options) fig9Config {
	cfg := fig9Config{Ports: 350, N: hw.RTBHUnitN, Adoptions: []float64{0.2, 0.6, 1.0}}
	if o.Small {
		cfg.N = 2
	}
	return cfg
}

// fig9Cell is one grid cell outcome: "OK", "F1" (L3-L4 criteria
// exhausted) or "F2" (MAC filters exhausted).
type fig9Cell string

// fig9Grid is one adoption panel: rows indexed by MAC filters per port
// (10N down to 0), columns by L3-L4 criteria per port (0 to 4N).
type fig9Grid struct {
	Adoption float64
	MACSteps []int // per-port MAC filter counts, in units of N
	L34Steps []int // per-port L3-L4 criteria, in units of N
	Cells    map[[2]int]fig9Cell
}

// fig9Result is the full figure.
type fig9Result struct {
	Grids []fig9Grid
}

// fig9 reproduces Figure 9 by exercising the hardware model for real:
// for each (adoption, MAC-per-port, L3-L4-per-port) combination it
// allocates the implied rule set on a fresh edge router and records
// which budget, if any, is exhausted first. L3-L4 criteria are allocated
// before MAC filters, matching the paper's F1-before-F2 reporting
// precedence. The grid has no traffic, so it is a plain loop.
func fig9(cfg fig9Config) fig9Result {
	var res fig9Result
	macSteps := []int{10, 8, 6, 4, 2, 0}
	l34Steps := []int{0, 1, 2, 3, 4}
	for _, adoption := range cfg.Adoptions {
		grid := fig9Grid{
			Adoption: adoption,
			MACSteps: macSteps,
			L34Steps: l34Steps,
			Cells:    make(map[[2]int]fig9Cell),
		}
		active := int(adoption * float64(cfg.Ports))
		for _, macN := range macSteps {
			for _, l34N := range l34Steps {
				grid.Cells[[2]int{macN, l34N}] = allocateCell(cfg, active, macN*cfg.N, l34N*cfg.N)
			}
		}
		res.Grids = append(res.Grids, grid)
	}
	return res
}

// allocateCell allocates the full demand on a fresh router and classifies
// the first failure.
func allocateCell(cfg fig9Config, activePorts, macPerPort, l34PerPort int) fig9Cell {
	limits := hw.DefaultEdgeRouterLimits(cfg.Ports, cfg.N)
	// The stretch test installs individual criteria; lift the per-port
	// policy-slot cap so only the paper's two budget dimensions bind.
	limits.QoSPoliciesPerPort = (macPerPort + l34PerPort + 1) * 2
	router := hw.NewEdgeRouter(limits)
	// Pass 1: L3-L4 criteria on every active port (F1 dimension).
	for port := 0; port < activePorts; port++ {
		for k := 0; k < l34PerPort; k++ {
			if err := router.Allocate(port, 0, 1); err != nil {
				return classifyHWErr(err)
			}
		}
	}
	// Pass 2: MAC filters (F2 dimension).
	for port := 0; port < activePorts; port++ {
		for k := 0; k < macPerPort; k++ {
			if err := router.Allocate(port, 1, 0); err != nil {
				return classifyHWErr(err)
			}
		}
	}
	return "OK"
}

func classifyHWErr(err error) fig9Cell {
	switch {
	case errors.Is(err, hw.ErrL34Exhausted):
		return "F1"
	case errors.Is(err, hw.ErrMACExhausted):
		return "F2"
	default:
		return fig9Cell(err.Error())
	}
}

// Cell returns the outcome at (macN, l34N) units for the grid.
func (g fig9Grid) Cell(macN, l34N int) fig9Cell { return g.Cells[[2]int{macN, l34N}] }

// Format renders the panels as in the figure.
func (r fig9Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 9: Stellar scaling limits by IXP member adoption rate (OK / F1=L3-L4 exhausted / F2=MAC exhausted)\n")
	for _, g := range r.Grids {
		fmt.Fprintf(&b, "\nAdoption %.0f%% of member ASes:\n", g.Adoption*100)
		header := []string{"MAC\\L3-L4"}
		for _, l := range g.L34Steps {
			header = append(header, fmt.Sprintf("%dN", l))
		}
		var rows [][]string
		for _, m := range g.MACSteps {
			row := []string{fmt.Sprintf("%dN", m)}
			for _, l := range g.L34Steps {
				row = append(row, string(g.Cell(m, l)))
			}
			rows = append(rows, row)
		}
		b.WriteString(formatTable(header, rows))
	}
	return b.String()
}
