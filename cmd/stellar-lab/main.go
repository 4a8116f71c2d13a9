// Command stellar-lab regenerates every table and figure of the paper's
// evaluation from the simulation substrate. Each subcommand runs one
// experiment through experiments.Run and prints its rows/series.
//
// Usage:
//
//	stellar-lab <experiment|all> [-seed N] [-scale small|full]
//	stellar-lab conformance [-json PATH] [-list] [-faults-only] [profile ...]
//	stellar-lab federation [-exchanges N] [-gossip-delay N] [-seed N] [-json PATH]
//
// The experiments are the names experiments.Names lists, and all runs
// every one of them in that order. The conformance subcommand runs the
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
	"strings"

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

// usage names every subcommand: the experiments in their Names order,
// then conformance, federation and all.
func usage() string {
	subcommands := append(experiments.Names(), "conformance", "federation", "all")
	return "usage: stellar-lab <" + strings.Join(subcommands, "|") + "> [flags]"
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return errors.New(usage())
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
	if err := parseFlags(fs, args[1:]); err != nil {
		return err
	}
	if *scale != "small" && *scale != "full" {
		return fmt.Errorf("usage: -scale must be small or full, got %q", *scale)
	}
	o := experiments.Options{Seed: *seed, Small: *scale == "small"}

	experimentsToRun := []string{name}
	if name == "all" {
		experimentsToRun = experiments.Names()
	}
	for i, exp := range experimentsToRun {
		if i > 0 {
			fmt.Fprintln(w, "\n================================================================")
		}
		if err := experiments.Run(exp, w, o); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
	}
	return nil
}

// parseFlags parses args into fs and rejects anything left over: the
// flag package stops at the first argument that is not a flag, so a
// stray word would otherwise drop every flag after it unread.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("usage: unexpected argument %q; %s takes only flags", fs.Arg(0), fs.Name())
	}
	return nil
}
