// Package stellar is a from-scratch Go reproduction of "Stellar: Network
// Attack Mitigation using Advanced Blackholing" (Dietzel, Wichtlhuber,
// Smaragdakis, Feldmann — CoNEXT 2018): the Advanced Blackholing system
// together with every substrate it runs on — a BGP-4 wire-format stack
// with communities/extended-communities/ADD-PATH, an IXP route server
// with IRR/bogon import hygiene, an emulated switching fabric with
// TCAM-budgeted QoS filtering, traffic generators for amplification
// attacks and benign services, a flow monitor, and the baseline
// mitigation techniques (RTBH, ACL, Flowspec, TSS) the paper compares
// against.
//
// See README.md for the build/test instructions and ARCHITECTURE.md for
// the layer map, the discrete-time simulation model and the data flow of
// an attack tick. cmd/stellar-lab regenerates every table and figure of
// the evaluation. How fast the system is has one definition:
// BENCHMARK.json and the nested module benchmark/ (signal-to-drop over
// the wire, route churn, engine flows/s, and a named metric per layer).
// The benchmarks in ablation_test.go are not timings but ablations of
// the paper's design choices.
package stellar
