package experiments

import (
	"testing"
)

// legacyFig9 is the frozen pre-engine replica of the Figure 9 sweep:
// plain nested loops over the grid, no event train. It exists only as
// the parity oracle below; the production path is Fig9.
func legacyFig9(cfg Fig9Config) Fig9Result {
	var res Fig9Result
	macSteps := []int{10, 8, 6, 4, 2, 0}
	l34Steps := []int{0, 1, 2, 3, 4}
	for _, adoption := range cfg.Adoptions {
		grid := Fig9Grid{
			Adoption: adoption,
			MACSteps: macSteps,
			L34Steps: l34Steps,
			Cells:    make(map[[2]int]Fig9Cell),
		}
		active := int(adoption * float64(cfg.Ports))
		for _, macN := range macSteps {
			for _, l34N := range l34Steps {
				grid.Cells[[2]int{macN, l34N}] = fig9Cell(cfg, active, macN*cfg.N, l34N*cfg.N)
			}
		}
		res.Grids = append(res.Grids, grid)
	}
	return res
}

// TestFig9EngineMatchesLegacyLoop pins the event-train Fig9 to the
// frozen nested-loop replica, cell for cell. The sweep is fully
// deterministic, so equality is exact.
func TestFig9EngineMatchesLegacyLoop(t *testing.T) {
	for _, cfg := range []Fig9Config{
		DefaultFig9Config(),
		{Ports: 64, N: 16, Adoptions: []float64{0.5, 1.0}},
	} {
		want := legacyFig9(cfg)
		got := Fig9(cfg)
		if len(got.Grids) != len(want.Grids) {
			t.Fatalf("%d grids, want %d", len(got.Grids), len(want.Grids))
		}
		for gi := range want.Grids {
			w, g := want.Grids[gi], got.Grids[gi]
			if g.Adoption != w.Adoption {
				t.Fatalf("grid %d: adoption %v, want %v", gi, g.Adoption, w.Adoption)
			}
			if len(g.Cells) != len(w.Cells) {
				t.Fatalf("grid %d: %d cells, want %d", gi, len(g.Cells), len(w.Cells))
			}
			for key, wc := range w.Cells {
				if gc := g.Cells[key]; gc != wc {
					t.Errorf("adoption %.0f%% mac=%dN l34=%dN: %q, want %q",
						w.Adoption*100, key[0], key[1], gc, wc)
				}
			}
		}
	}
}
