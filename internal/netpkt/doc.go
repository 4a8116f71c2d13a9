// Package netpkt holds the flow-level vocabulary shared by the emulated
// IXP's data plane: MAC (a member router's address on the peering LAN),
// IPProto, and FlowKey.
//
// The fabric classifies traffic on L2-L4 header fields only (Section 4.5
// of the paper) and the simulation is flow-level throughout — traffic
// generators emit per-flow byte aggregates, never frames — so there is
// no packet codec here. FlowKey is the aggregation key shared by the
// fabric's classifier and its flow memo, the traffic generators and the flow
// monitor; FlowKey.Hash is the stable 64-bit digest traffic generators
// precompute so per-tick hot loops never re-hash a flow.
package netpkt
