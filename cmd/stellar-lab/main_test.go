package main

import (
	"io"
	"slices"
	"strings"
	"testing"

	"stellar/internal/experiments"
)

// TestRunAllExperimentsSmallScale executes every experiment end to end
// at CI scale, covering the CLI plumbing and every experiment driver.
func TestRunAllExperimentsSmallScale(t *testing.T) {
	for _, exp := range experiments.Names() {
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
	// A stray argument must not end flag parsing silently and drop the
	// flags after it: the run would be paper-sized, or print no JSON.
	for _, args := range [][]string{
		{"fig10b", "extra", "-scale", "small"},
		{"federation", "-exchanges", "2", "bogus", "-json", "-"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "usage") {
			t.Fatalf("%q: %v, want a usage error", args, err)
		}
	}
}

// TestNames pins the experiments' order, which is the order `all` runs
// and the goldens print them in, and checks that the usage string names
// every one.
func TestNames(t *testing.T) {
	want := []string{"table1", "fig2c", "fig3a", "fig3b", "fig3c", "fig9",
		"fig10a", "fig10b", "fig10c", "sec52", "compare", "combined-tss"}
	if got := experiments.Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	u := usage()
	listed := strings.Split(u[strings.Index(u, "<")+1:strings.Index(u, ">")], "|")
	for _, name := range want {
		if !slices.Contains(listed, name) {
			t.Errorf("usage %q does not name %s", u, name)
		}
	}
}

func TestSeedOverride(t *testing.T) {
	if err := run([]string{"fig3b", "-scale", "small", "-seed", "99"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestFederationZeroGossipDelay pins that -gossip-delay 0 means a
// same-tick relay rather than a default.
func TestFederationZeroGossipDelay(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"federation", "-exchanges", "2", "-gossip-delay", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gossip delay 0 ticks", "max propagation 0 ticks"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
