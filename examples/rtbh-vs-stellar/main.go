// rtbh-vs-stellar runs the paper's two controlled booter experiments
// head to head on identical infrastructure: Figure 3(c) (classic RTBH —
// most of the attack survives because ~70% of peers ignore the signal)
// and Figure 10(c) (Stellar — shape for telemetry, then drop to zero).
// Both scenarios are the "paper-fig3c" and "paper-fig10c" conformance
// profiles, resized to a laptop-sized population.
//
// Run with: go run ./examples/rtbh-vs-stellar
package main

import (
	"fmt"
	"log"

	"stellar/internal/conformance"
	"stellar/internal/experiments"
)

// load returns a paper profile with 200 members, same honoring ratio.
func load(name string) *conformance.Profile {
	p, err := conformance.Load(name)
	if err != nil {
		log.Fatal(err)
	}
	p.Topology.Members = 200
	return p
}

func main() {
	rtbh, err := experiments.Fig3c(load("paper-fig3c"))
	if err != nil {
		log.Fatal(err)
	}
	stl, err := experiments.Fig10c(load("paper-fig10c"))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(rtbh.Format())
	fmt.Println()
	fmt.Print(stl.Format())

	fmt.Println("\n=== Head to head ===")
	fmt.Printf("%-28s %12s %12s\n", "", "RTBH", "Stellar")
	fmt.Printf("%-28s %9.0f Mbps %9.0f Mbps\n", "attack at steady state", rtbh.PeakBps/1e6, stl.PeakBps/1e6)
	fmt.Printf("%-28s %9.0f Mbps %9.0f Mbps\n", "after final mitigation", rtbh.ResidualBps/1e6, stl.FinalBps/1e6)
	fmt.Printf("%-28s %11.0f%% %11.0f%%\n", "attack removed",
		100*(1-rtbh.ResidualBps/rtbh.PeakBps), 100*(1-stl.FinalBps/stl.PeakBps))
	fmt.Printf("%-28s %12.0f %12.0f\n", "peers before", rtbh.PeersBefore, stl.PeersPeak)
	fmt.Printf("%-28s %12.0f %12.0f\n", "peers after", rtbh.PeersAfter, stl.PeersFinal)
}
