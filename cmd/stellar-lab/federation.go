package main

// The federation subcommand runs a synthetic multi-IXP deployment — N
// exchanges with shared victims and cross-IXP peers, mitigation gossip
// between them — and prints the consolidated report.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"stellar/internal/federation"
)

func runFederationCommand(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("federation", flag.ContinueOnError)
	exchanges := fs.Int("exchanges", 4, "number of exchanges")
	victims := fs.Int("victims", 2, "shared victims present at every exchange")
	sharedPeers := fs.Int("shared-peers", 8, "cross-IXP peers announcing at every exchange")
	localPeers := fs.Int("local-peers", 24, "peers private to each exchange")
	ticks := fs.Int("ticks", 120, "simulated ticks")
	delay := fs.Int("gossip-delay", 1, "gossip propagation delay in ticks")
	mitigate := fs.Int("mitigate-tick", 30, "tick the victims request mitigation at exchange 0 (negative: never)")
	seed := fs.Uint64("seed", 7, "population and traffic seed")
	jsonPath := fs.String("json", "", "also write the consolidated report as JSON to this path ('-' for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: stellar-lab federation [-exchanges N] [-victims N] [-ticks N] [-gossip-delay N] [-json PATH]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	fed, err := federation.BuildSynthetic(federation.TopologyConfig{
		Exchanges:        *exchanges,
		Victims:          *victims,
		SharedPeers:      *sharedPeers,
		LocalPeers:       *localPeers,
		Ticks:            *ticks,
		GossipDelayTicks: *delay,
		MitigateTick:     *mitigate,
		Seed:             *seed,
	})
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
