package main

// The federation subcommand runs the federation-gossip conformance
// profile at N exchanges — the victims' drops signaled at exchange 0,
// gossiped to the others — and prints the consolidated report.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"stellar/internal/conformance"
	"stellar/internal/federation"
)

func runFederationCommand(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("federation", flag.ContinueOnError)
	exchanges := fs.Int("exchanges", 4, "number of exchanges")
	delay := fs.Int("gossip-delay", 1, "gossip propagation delay in ticks (0: same-tick relay)")
	seed := fs.Uint64("seed", 0, "topology seed of exchange 0; exchange e uses seed+e (0 keeps the profile's)")
	jsonPath := fs.String("json", "", "also write the consolidated report as JSON to this path ('-' for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: stellar-lab federation [-exchanges N] [-gossip-delay N] [-seed N] [-json PATH]")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	p, err := conformance.Load("federation-gossip")
	if err != nil {
		return err
	}
	if *seed != 0 {
		p.Topology.Seed = *seed
	}
	fed, err := federation.Build(p, *exchanges, *delay)
	if err != nil {
		return err
	}
	report, err := fed.Run()
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Format())

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			if _, err := w.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
