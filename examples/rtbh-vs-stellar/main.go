// rtbh-vs-stellar runs the paper's two controlled booter experiments
// head to head on identical infrastructure: Figure 3(c) (classic RTBH —
// most of the attack survives because ~70% of peers ignore the signal)
// and Figure 10(c) (Stellar — shape for telemetry, then drop to zero).
// Both scenarios are the "paper-fig3c" and "paper-fig10c" conformance
// profiles, resized to a laptop-sized population; the head-to-head
// numbers are the measured values of their checks, the same numbers
// `stellar-lab fig3c` and `fig10c` report.
//
// Run with: go run ./examples/rtbh-vs-stellar
package main

import (
	"fmt"
	"log"

	"stellar/internal/conformance"
)

// measured runs the named paper profile with 200 members (same honoring
// ratio), prints its checks and returns their measured values by name.
func measured(name string) map[string]float64 {
	p, err := conformance.Load(name)
	if err != nil {
		log.Fatal(err)
	}
	p.Topology.Members = 200
	res, err := conformance.Run(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%d members):\n", p.Name, p.Topology.Members)
	values := make(map[string]float64, len(res.Report.Checks))
	for _, c := range res.Report.Checks {
		fmt.Printf("  %s\n", c)
		values[c.Name] = c.Measured
	}
	return values
}

func main() {
	rtbh := measured("paper-fig3c")
	stl := measured("paper-fig10c")

	rtbhPeak, rtbhFinal := rtbh["attack steady state"], rtbh["residual after RTBH"]
	stlPeak, stlFinal := stl["attack steady state"], stl["attack dropped"]
	fmt.Println("\n=== Head to head ===")
	fmt.Printf("%-28s %12s %12s\n", "", "RTBH", "Stellar")
	fmt.Printf("%-28s %9.0f Mbps %9.0f Mbps\n", "attack at steady state", rtbhPeak/1e6, stlPeak/1e6)
	fmt.Printf("%-28s %9.0f Mbps %9.0f Mbps\n", "after final mitigation", rtbhFinal/1e6, stlFinal/1e6)
	fmt.Printf("%-28s %11.0f%% %11.0f%%\n", "attack removed",
		100*(1-rtbhFinal/rtbhPeak), 100*(1-stlFinal/stlPeak))
	fmt.Printf("%-28s %12.0f %12.0f\n", "peers before", rtbh["peers at steady state"], stl["peers at steady state"])
	fmt.Printf("%-28s %12.0f %12.0f\n", "peers after", rtbh["peers after RTBH"], stl["peers after drop"])
}
