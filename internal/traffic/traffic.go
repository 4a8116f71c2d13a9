// Package traffic generates the workloads of the paper's measurement and
// controlled experiments: UDP amplification attacks (NTP, DNS, LDAP,
// memcached, chargen and spoofed port-0 floods), booter-style attacks
// fanned out over many IXP peers, and benign web-service traffic. All
// generators are flow-level (they emit fabric.Offer aggregates per tick)
// and deterministic given a seed. Each is fixed when its constructor
// returns (bar Attack.RampTicks, set before use), and AppendOffers only
// reads it, so one source may feed several victims generating
// concurrently.
package traffic

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// Vector describes one amplification-attack vector: the abused protocol,
// its UDP source port signature, and its typical reflected datagram size
// from the amplification literature the paper cites (Rossow, NDSS 2014;
// US-CERT TA14-017A).
type Vector struct {
	Name         string
	SrcPort      uint16
	ResponseSize int // typical reflected datagram size in bytes
}

// The amplification vectors observed dominating blackholed traffic in
// Figure 3(a): ports 0 (fragments/spoofed), 123 (NTP), 389 (CLDAP),
// 11211 (memcached), 53 (DNS), 19 (chargen).
var (
	VectorPortZero  = Vector{Name: "port-0", SrcPort: 0, ResponseSize: 1480}
	VectorNTP       = Vector{Name: "ntp", SrcPort: 123, ResponseSize: 468}
	VectorLDAP      = Vector{Name: "ldap", SrcPort: 389, ResponseSize: 1400}
	VectorMemcached = Vector{Name: "memcached", SrcPort: 11211, ResponseSize: 1400}
	VectorDNS       = Vector{Name: "dns", SrcPort: 53, ResponseSize: 1378}
	VectorChargen   = Vector{Name: "chargen", SrcPort: 19, ResponseSize: 1020}
)

// Vectors lists the known amplification vectors in Figure 3(a)'s order.
func Vectors() []Vector {
	return []Vector{VectorPortZero, VectorNTP, VectorLDAP, VectorMemcached, VectorDNS, VectorChargen}
}

// vectorsByName indexes the known vectors for O(1) lookup.
var vectorsByName = func() map[string]Vector {
	vs := Vectors()
	m := make(map[string]Vector, len(vs))
	for _, v := range vs {
		m[v.Name] = v
	}
	return m
}()

// VectorByName returns the named vector.
func VectorByName(name string) (Vector, error) {
	if v, ok := vectorsByName[name]; ok {
		return v, nil
	}
	return Vector{}, fmt.Errorf("traffic: unknown vector %q", name)
}

// Peer identifies one traffic source on the peering LAN: an IXP member
// forwarding traffic toward the victim.
type Peer struct {
	MAC netpkt.MAC
	// SrcIP is a representative source address behind the peer (the
	// reflector pool address for attack traffic).
	SrcIP netip.Addr
}

// Attack is a reflection/amplification attack against one target IP,
// arriving via a set of IXP peers — the shape of the booter-service
// attacks in Sections 2.4 and 5.3. NewAttack fixes all of it but
// RampTicks, including the flow table its offers point into
// (fabric.Offer's pointer-lifetime rule).
type Attack struct {
	// RampTicks linearly ramps the attack to full rate (booters ramp up
	// within a few seconds). Set it before the first AppendOffers.
	RampTicks int

	rateBps    float64 // aggregate rate at peak
	start, end int     // active ticks [start, end)
	pktSize    float64 // the vector's reflected datagram size
	// weights split the rate across the peers heavy-tailed (Pareto), so
	// a few peers dominate, as observed in the paper's booter
	// experiments. flows are the per-peer flow keys.
	weights []float64
	flows   []netpkt.FlowKey
}

// NewAttack builds an attack of vector v on target, split across peers
// with deterministic weights drawn from rng, at rateBps from tick start
// (inclusive) to end (exclusive), ramping up over 5 ticks.
func NewAttack(v Vector, target netip.Addr, peers []Peer, rateBps float64, start, end int, rng *stats.Rand) *Attack {
	a := &Attack{RampTicks: 5, rateBps: rateBps, start: start, end: end,
		pktSize: float64(v.ResponseSize),
		weights: drawWeights(len(peers), func() float64 { return rng.Pareto(1.0, 1.8) }),
		flows:   make([]netpkt.FlowKey, len(peers)),
	}
	for i, p := range peers {
		// Reflected toward the service port under attack.
		a.flows[i] = netpkt.FlowKey{SrcMAC: p.MAC, Src: p.SrcIP, Dst: target,
			Proto: netpkt.ProtoUDP, SrcPort: v.SrcPort, DstPort: 443}
	}
	return a
}

// drawWeights draws n weights and normalizes them to sum to 1.
func drawWeights(n int, draw func() float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = draw()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// rateAt returns the attack rate at tick including ramp-up: 0 outside
// the attack's window.
func (a *Attack) rateAt(tick int) float64 {
	switch {
	case tick < a.start || tick >= a.end:
		return 0
	case tick-a.start < a.RampTicks:
		return a.rateBps * float64(tick-a.start+1) / float64(a.RampTicks)
	}
	return a.rateBps
}

// AppendOffers appends the tick's offers to dst and returns it (the
// engine's Source). dst grows at most once, to room for one offer per
// peer. Each offer's Flow points at the attack's key for its peer,
// which never changes.
func (a *Attack) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	rate := a.rateAt(tick)
	if rate == 0 {
		return dst
	}
	totalBytes := rate * dtSeconds / 8
	dst = slices.Grow(dst, len(a.flows))
	for i := range a.flows {
		b := totalBytes * a.weights[i]
		if b <= 0 {
			continue
		}
		dst = append(dst, fabric.Offer{
			Flow:    &a.flows[i],
			Bytes:   b,
			Packets: b / a.pktSize,
		})
	}
	return dst
}

// webMix is the pre-attack destination-port mix of the service in
// Figure 2(c): mostly HTTPS with HTTP, alternative HTTP and RTMP
// components.
var webMix = [...]struct {
	port  uint16
	share float64
}{
	{443, 0.55},
	{80, 0.20},
	{8080, 0.12},
	{1935, 0.08},
	{22, 0.05}, // "others"
}

// WebService generates the benign traffic of the victim service in
// Figure 2(c): HTTPS-dominated TCP traffic across a handful of ports
// (webMix). NewWebService fixes it; the first AppendOffers builds its
// (peer, port) key table, once, under a sync.Once. Its offers
// point into that table (fabric.Offer's pointer-lifetime rule).
type WebService struct {
	target  netip.Addr
	peers   []Peer // the service's clients; kept, not copied
	rateBps float64
	weights []float64

	once sync.Once
	// flows are the (peer, mix) flow keys, flattened peer-major.
	flows []netpkt.FlowKey
}

// NewWebService builds a benign web workload spread across peers with
// weights drawn from rng. The caller must not edit peers afterwards.
func NewWebService(target netip.Addr, peers []Peer, rateBps float64, rng *stats.Rand) *WebService {
	return &WebService{target: target, peers: peers, rateBps: rateBps,
		weights: drawWeights(len(peers), func() float64 { return 0.5 + rng.Float64() })}
}

// buildFlows fills the (peer, mix) key table. It runs on the first
// AppendOffers rather than in NewWebService, keeping the table out of a
// workload's set-up.
func (w *WebService) buildFlows() {
	w.flows = make([]netpkt.FlowKey, len(w.peers)*len(webMix))
	for i, p := range w.peers {
		for j, m := range webMix {
			k := i*len(webMix) + j
			// A stable per-port client flow.
			w.flows[k] = netpkt.FlowKey{SrcMAC: p.MAC, Src: p.SrcIP, Dst: w.target,
				Proto: netpkt.ProtoTCP, SrcPort: 40000 + m.port, DstPort: m.port}
		}
	}
}

// AppendOffers appends the tick's offers to dst and returns it (the
// engine's Source). dst grows at most once, to room for one offer per
// (peer, mix) flow. Each offer's Flow points at the service's key for
// its (peer, mix) flow, which never changes once built.
func (w *WebService) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	w.once.Do(w.buildFlows)
	totalBytes := w.rateBps * dtSeconds / 8
	dst = slices.Grow(dst, len(w.flows))
	for i, weight := range w.weights {
		peerBytes := totalBytes * weight
		for j, m := range webMix {
			b := peerBytes * m.share
			if b <= 0 {
				continue
			}
			k := i*len(webMix) + j
			dst = append(dst, fabric.Offer{
				Flow:    &w.flows[k],
				Bytes:   b,
				Packets: b / 900,
			})
		}
	}
	return dst
}

// MakePeers fabricates n peers with deterministic MACs and source
// addresses in 198.51.100.0/24 and 203.0.113.0/24.
func MakePeers(n int) []Peer {
	peers := make([]Peer, n)
	for i := range peers {
		var mac netpkt.MAC
		mac[0] = 0x02
		mac[1] = 0x10
		mac[2] = byte(i >> 24)
		mac[3] = byte(i >> 16)
		mac[4] = byte(i >> 8)
		mac[5] = byte(i)
		peers[i] = Peer{
			MAC:   mac,
			SrcIP: netip.AddrFrom4([4]byte{198, 51, byte(100 + i/256), byte(i % 256)}),
		}
	}
	return peers
}
