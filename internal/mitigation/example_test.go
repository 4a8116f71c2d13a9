package mitigation_test

import (
	"fmt"
	"net/netip"

	"stellar/internal/bgp"
	"stellar/internal/mitigation"
)

// ExampleFlowSpecToMatches compiles a hardware-expressible RFC 5575 flow
// specification into a fabric match (which InstallRule then compiles
// into the port's classifier), and shows a non-expressible spec — a
// port range — being refused to the slow path.
func ExampleFlowSpecToMatches() {
	simple := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.DstPrefix(netip.MustParsePrefix("100.10.10.10/32")),
		bgp.Numeric(bgp.FSIPProto, bgp.Eq(17)),  // UDP
		bgp.Numeric(bgp.FSSrcPort, bgp.Eq(123)), // NTP
	}}
	if ms, err := mitigation.FlowSpecToMatches(simple); err == nil && len(ms) == 1 {
		fmt.Println("hardware path:", ms[0])
	}

	ranged := &bgp.FlowSpec{Components: []bgp.FlowSpecComponent{
		bgp.Numeric(bgp.FSSrcPort, bgp.FlowSpecMatch{GT: true, Value: 1023}),
	}}
	if _, err := mitigation.FlowSpecToMatches(ranged); err != nil {
		fmt.Println("port range: needs slow-path processing")
	}
	// Output:
	// hardware path: proto=UDP,dst=100.10.10.10/32,src-port=123
	// port range: needs slow-path processing
}
