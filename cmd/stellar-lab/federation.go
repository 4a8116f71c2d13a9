package main

// The federation subcommand runs a synthetic multi-IXP deployment — N
// exchanges with shared victims and cross-IXP peers, mitigation gossip
// between them — and prints the consolidated report. benchFederation
// is the matching bench section: a 10-exchange, ~1M-member-flow run
// measuring aggregate flow throughput and signaling propagation.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

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

// federationBench is the multi-IXP section of the bench report: a
// federation of exchanges driven on one clock with gossip between
// their mitigation controllers, measured as aggregate generated flow
// throughput plus the propagation lag of the mitigation signal. The
// regression bars demand barFederationFlowsPerSec aggregate flows/s
// and that every signal reaches every exchange within the configured
// gossip delay.
type federationBench struct {
	Exchanges             int     `json:"exchanges"`
	Victims               int     `json:"victims"`
	SharedPeers           int     `json:"shared_peers"`
	LocalPeersPerExchange int     `json:"local_peers_per_exchange"`
	Ticks                 int     `json:"ticks"`
	GOMAXPROCS            int     `json:"gomaxprocs"`
	GossipDelayTicks      int     `json:"gossip_delay_ticks"`
	Seconds               float64 `json:"seconds"`
	OfferedFlows          int64   `json:"offered_flows"`
	FlowsPerSec           float64 `json:"flows_per_sec"`
	TicksPerSec           float64 `json:"ticks_per_sec"`
	Signals               int     `json:"signals"`
	SignalsComplete       int     `json:"signals_complete"`
	MaxPropagationTicks   int     `json:"max_propagation_ticks"`
}

// benchFederation runs the synthetic topology twice — a short warmup
// federation, then a fresh full-length one — timing only Run (the
// synchronized engines), not topology construction. Federations are
// single-use like the engines they wrap, so each run builds its own.
func benchFederation(exchanges, victims, localPeers, ticks, delay int) (*federationBench, error) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const sharedPeers = 8
	build := func(nTicks int) (*federation.Federation, error) {
		return federation.BuildSynthetic(federation.TopologyConfig{
			Exchanges:        exchanges,
			Victims:          victims,
			SharedPeers:      sharedPeers,
			LocalPeers:       localPeers,
			Ticks:            nTicks,
			GossipDelayTicks: delay,
			Seed:             9,
		})
	}

	warmTicks := ticks / 4
	if warmTicks < 20 {
		warmTicks = 20
	}
	warm, err := build(warmTicks)
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(); err != nil {
		return nil, err
	}

	fed, err := build(ticks)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := fed.Run()
	if err != nil {
		return nil, err
	}
	secs := time.Since(start).Seconds()

	res := &federationBench{
		Exchanges:             exchanges,
		Victims:               victims,
		SharedPeers:           sharedPeers,
		LocalPeersPerExchange: localPeers,
		Ticks:                 ticks,
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		GossipDelayTicks:      delay,
		Seconds:               secs,
		OfferedFlows:          rep.OfferedFlows,
		FlowsPerSec:           float64(rep.OfferedFlows) / secs,
		TicksPerSec:           float64(ticks) / secs,
		Signals:               len(rep.Signals),
		MaxPropagationTicks:   rep.MaxPropagationTicks(),
	}
	for _, s := range rep.Signals {
		if s.Complete {
			res.SignalsComplete++
		}
	}
	return res, nil
}
