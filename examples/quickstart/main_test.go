package main

// Example pins the quickstart's output byte for byte, the looking
// glass's line for the mitigation included.
func Example() {
	main()
	// Output:
	// Attack on; mitigation signaled at t=3 (applies with the one-tick delay):
	//   t= 0s offered   3400 Mbps | delivered   1000 Mbps | dropped-by-rule      0 Mbps | congestion-lost  2400 Mbps
	//   t= 1s offered   3400 Mbps | delivered   1000 Mbps | dropped-by-rule      0 Mbps | congestion-lost  2400 Mbps
	//   t= 2s offered   3400 Mbps | delivered   1000 Mbps | dropped-by-rule      0 Mbps | congestion-lost  2400 Mbps
	//   t= 3s offered   3400 Mbps | delivered    400 Mbps | dropped-by-rule   3000 Mbps | congestion-lost     0 Mbps
	//   t= 4s offered   3400 Mbps | delivered    400 Mbps | dropped-by-rule   3000 Mbps | congestion-lost     0 Mbps
	//   t= 5s offered   3400 Mbps | delivered    400 Mbps | dropped-by-rule   3000 Mbps | congestion-lost     0 Mbps
	//   t= 6s offered   3400 Mbps | delivered    400 Mbps | dropped-by-rule   3000 Mbps | congestion-lost     0 Mbps
	//
	// Stellar applied 1 configuration change(s).
	// mitigations: 1 active
	//   mit:AS64512:100.64.0.1/32:6d8940fc owner AS64512 state active origin local ttl - dropped 1499999932 B shaped 0 B
}
