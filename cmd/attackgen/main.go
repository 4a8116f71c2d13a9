// Command attackgen emits synthetic attack and benign workloads as CSV
// time series — the hardware-accelerated traffic generator of the
// paper's lab setup, reduced to flow-level aggregates. Output columns:
// tick, src_member, src_ip, proto, src_port, dst_port, bytes, packets.
//
// Usage:
//
//	attackgen -vector ntp -rate 1e9 -peers 40 -ticks 600 -target 100.10.10.10
//	attackgen -vector web -rate 8e8 -peers 5 -ticks 600
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatalf("attackgen: %v", err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("attackgen", flag.ContinueOnError)
	vector := fs.String("vector", "ntp", "workload: ntp|dns|ldap|memcached|chargen|port-0|web")
	rate := fs.Float64("rate", 1e9, "aggregate rate in bits/s")
	peerCount := fs.Int("peers", 40, "number of source peers")
	ticks := fs.Int("ticks", 600, "duration in 1-second ticks")
	start := fs.Int("start", 0, "attack start tick")
	target := fs.String("target", "100.10.10.10", "victim address")
	seed := fs.Uint64("seed", 1, "PRNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dst, err := netip.ParseAddr(*target)
	if err != nil {
		return fmt.Errorf("bad target: %v", err)
	}
	rng := stats.NewRand(*seed)
	peers := traffic.MakePeers(*peerCount)

	var src engine.Source
	if *vector == "web" {
		src = traffic.NewWebService(dst, peers, *rate, rng)
	} else {
		v, err := traffic.VectorByName(*vector)
		if err != nil {
			return err
		}
		src = traffic.NewAttack(v, dst, peers, *rate, *start, *ticks, rng)
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "tick,src_member,src_ip,proto,src_port,dst_port,bytes,packets")
	var offers []fabric.Offer
	for tick := 0; tick < *ticks; tick++ {
		offers = src.AppendOffers(offers[:0], tick, 1)
		for _, o := range offers {
			fmt.Fprintf(bw, "%d,%s,%s,%s,%d,%d,%.0f,%.0f\n",
				tick, o.Flow.SrcMAC, o.Flow.Src, o.Flow.Proto,
				o.Flow.SrcPort, o.Flow.DstPort, o.Bytes, o.Packets)
		}
	}
	return bw.Flush()
}
