// Command stellar-lab regenerates every table and figure of the paper's
// evaluation from the simulation substrate. Each subcommand runs one
// experiment and prints the corresponding rows/series.
//
// Usage:
//
//	stellar-lab <experiment> [-seed N] [-scale small|full]
//
// Experiments: table1, fig2c, fig3a, fig3b, fig3c, fig9, fig10a,
// fig10b, fig10c, sec52, all. The conformance subcommand runs the
// declarative scenario matrix instead of a single experiment; the
// federation subcommand runs the federation-gossip profile at several
// exchanges with cross-IXP mitigation gossip. Timing the system is not
// this command's job: the repo's one benchmark is
// `bash benchmark/run.sh`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"stellar/internal/conformance"
	"stellar/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "stellar-lab:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: stellar-lab <table1|fig2c|fig3a|fig3b|fig3c|fig9|fig10a|fig10b|fig10c|sec52|compare|combined-tss|conformance|federation|all> [flags]")
	}
	name := args[0]
	if name == "bench" {
		return fmt.Errorf("the bench subcommand is gone; the repo's benchmark is `bash benchmark/run.sh --workload W` (see benchmark/README.md)")
	}
	if name == "conformance" {
		// Declarative scenario matrix with JSON report (its own flags).
		return runConformanceCommand(args[1:], w)
	}
	if name == "federation" {
		// Synthetic multi-IXP run with gossip signaling (its own flags).
		return runFederationCommand(args[1:], w)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Uint64("seed", 0, "override the experiment's default seed (0 keeps it)")
	scale := fs.String("scale", "full", "experiment scale: small (CI-sized) or full (paper-sized)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *scale != "small" && *scale != "full" {
		return fmt.Errorf("usage: -scale must be small or full, got %q", *scale)
	}
	small := *scale == "small"

	experimentsToRun := []string{name}
	if name == "all" {
		experimentsToRun = []string{"table1", "fig2c", "fig3a", "fig3b", "fig3c",
			"fig9", "fig10a", "fig10b", "fig10c", "sec52", "compare", "combined-tss"}
	}
	for i, exp := range experimentsToRun {
		if i > 0 {
			fmt.Fprintln(w, "\n================================================================")
		}
		if err := runOne(w, exp, *seed, small); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
	}
	return nil
}

func runOne(w io.Writer, name string, seed uint64, small bool) error {
	switch name {
	case "table1":
		fmt.Fprint(w, experiments.Table1().Format())
	case "fig2c":
		cfg := experiments.DefaultFig2cConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		fmt.Fprint(w, experiments.Fig2c(cfg).Format())
	case "fig3a":
		cfg := experiments.DefaultFig3aConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		if small {
			cfg.Events = 50
		}
		r, err := experiments.Fig3a(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	case "fig3b":
		cfg := experiments.DefaultFig3bConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		if small {
			cfg.Announcements = 20000
		}
		fmt.Fprint(w, experiments.Fig3b(cfg).Format())
	case "fig3c":
		p, err := paperProfile(name, seed, small)
		if err != nil {
			return err
		}
		r, err := experiments.Fig3c(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	case "fig9":
		cfg := experiments.DefaultFig9Config()
		if small {
			cfg.N = 2
		}
		fmt.Fprint(w, experiments.Fig9(cfg).Format())
	case "fig10a":
		cfg := experiments.DefaultFig10aConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		r, err := experiments.Fig10a(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	case "fig10b":
		cfg := experiments.DefaultFig10bConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		if small {
			cfg.DurationSec = 3600
		}
		fmt.Fprint(w, experiments.Fig10b(cfg).Format())
	case "fig10c":
		p, err := paperProfile(name, seed, small)
		if err != nil {
			return err
		}
		r, err := experiments.Fig10c(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	case "sec52":
		// The lab bench keeps its 12 members at every scale.
		p, err := seededProfile("sec52-lab", seed)
		if err != nil {
			return err
		}
		r, err := experiments.Sec52(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	case "compare":
		// The comparison keeps its 41 members at every scale.
		p, err := seededProfile("paper-table1", seed)
		if err != nil {
			return err
		}
		r, err := experiments.CompareMitigations(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	case "combined-tss":
		p, err := seededProfile("paper-table1", seed)
		if err != nil {
			return err
		}
		r, err := experiments.CombinedTSS(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.Format())
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// paperProfile loads the conformance profile a paper figure runs from
// ("paper-fig3c" for fig3c), with the seed override and the small
// scale's 120-member population applied to its topology.
func paperProfile(fig string, seed uint64, small bool) (*conformance.Profile, error) {
	p, err := seededProfile("paper-"+fig, seed)
	if err != nil {
		return nil, err
	}
	if small {
		p.Topology.Members = 120
	}
	return p, nil
}

// seededProfile loads the named conformance profile with the seed
// override (0 keeps the profile's seed) applied to its topology.
func seededProfile(name string, seed uint64) (*conformance.Profile, error) {
	p, err := conformance.Load(name)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		p.Topology.Seed = seed
	}
	return p, nil
}
