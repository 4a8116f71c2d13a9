package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunAllExperimentsSmallScale executes every subcommand end to end
// at CI scale, covering the CLI plumbing and every experiment driver.
func TestRunAllExperimentsSmallScale(t *testing.T) {
	for _, exp := range []string{
		"table1", "fig2c", "fig3a", "fig3b", "fig3c", "fig9",
		"fig10a", "fig10b", "fig10c", "sec52", "compare", "combined-tss",
	} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run([]string{exp, "-scale", "small"}, io.Discard); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"not-an-experiment"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"fig3a", "-bogus"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A misspelt scale must not silently run the paper-sized experiment.
	if err := run([]string{"table1", "-scale", "smal"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("-scale smal: %v", err)
	}
	if err := run([]string{"bench"}, io.Discard); err == nil || !strings.Contains(err.Error(), "benchmark/run.sh") {
		t.Fatalf("bench: %v, want a pointer to benchmark/run.sh", err)
	}
}

func TestSeedOverride(t *testing.T) {
	if err := run([]string{"fig3b", "-scale", "small", "-seed", "99"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
