// Package traffic generates the workloads of the paper's measurement and
// controlled experiments: UDP amplification attacks (NTP, DNS, LDAP,
// memcached, chargen and spoofed port-0 floods), booter-style attacks
// fanned out over many IXP peers, and benign web-service traffic. All
// generators are flow-level (they emit fabric.Offer aggregates per tick)
// and deterministic given a seed.
package traffic

import (
	"fmt"
	"net/netip"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// Vector describes one amplification-attack vector: the abused protocol,
// its UDP source port signature, and typical characteristics from the
// amplification literature the paper cites (Rossow, NDSS 2014; US-CERT
// TA14-017A).
type Vector struct {
	Name         string
	SrcPort      uint16
	AmpFactor    float64 // bandwidth amplification factor
	ResponseSize int     // typical reflected datagram size in bytes
}

// The amplification vectors observed dominating blackholed traffic in
// Figure 3(a): ports 0 (fragments/spoofed), 123 (NTP), 389 (CLDAP),
// 11211 (memcached), 53 (DNS), 19 (chargen).
var (
	VectorPortZero  = Vector{Name: "port-0", SrcPort: 0, AmpFactor: 1, ResponseSize: 1480}
	VectorNTP       = Vector{Name: "ntp", SrcPort: 123, AmpFactor: 556.9, ResponseSize: 468}
	VectorLDAP      = Vector{Name: "ldap", SrcPort: 389, AmpFactor: 56, ResponseSize: 1400}
	VectorMemcached = Vector{Name: "memcached", SrcPort: 11211, AmpFactor: 51000, ResponseSize: 1400}
	VectorDNS       = Vector{Name: "dns", SrcPort: 53, AmpFactor: 28.7, ResponseSize: 1378}
	VectorChargen   = Vector{Name: "chargen", SrcPort: 19, AmpFactor: 358.8, ResponseSize: 1020}
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
	Name string
	MAC  netpkt.MAC
	// SrcIP is a representative source address behind the peer (the
	// reflector pool address for attack traffic).
	SrcIP netip.Addr
}

// Attack is a reflection/amplification attack against one target IP,
// arriving via a set of IXP peers — the shape of the booter-service
// attacks in Sections 2.4 and 5.3.
type Attack struct {
	Vector Vector
	// Target is the victim service address (the /32 under attack).
	Target netip.Addr
	// Peers carries the attack; traffic is split across them with a
	// heavy-tailed (Pareto) weight so a few peers dominate, as observed
	// in the paper's booter experiments.
	Peers []Peer
	// RateBps is the aggregate attack rate at peak.
	RateBps float64
	// StartTick and EndTick bound the attack (inclusive start,
	// exclusive end) in simulation ticks.
	StartTick, EndTick int
	// RampTicks linearly ramps the attack to full rate (booters ramp up
	// within a few seconds).
	RampTicks int

	weights []float64
	// flows and hashes cache the per-peer flow keys and their
	// netpkt.FlowKey.Hash values so each tick's Offers emits pre-hashed
	// offers with zero per-tick re-hashing (the fabric's egress hot loop
	// classifies them from its flow memo). Offers revalidates each
	// cached key against the current Target/Vector/Peers fields with a
	// cheap struct compare, so post-construction mutation stays correct.
	flows  []netpkt.FlowKey
	hashes []uint64
}

// NewAttack builds an attack with deterministic per-peer weights drawn
// from rng.
func NewAttack(v Vector, target netip.Addr, peers []Peer, rateBps float64, start, end int, rng *stats.Rand) *Attack {
	a := &Attack{Vector: v, Target: target, Peers: peers, RateBps: rateBps,
		StartTick: start, EndTick: end, RampTicks: 5}
	a.weights = make([]float64, len(peers))
	var sum float64
	for i := range peers {
		w := rng.Pareto(1.0, 1.8)
		a.weights[i] = w
		sum += w
	}
	for i := range a.weights {
		a.weights[i] /= sum
	}
	a.precomputeFlows()
	return a
}

// precomputeFlows fills the per-peer flow keys and hashes.
func (a *Attack) precomputeFlows() {
	a.flows = make([]netpkt.FlowKey, len(a.Peers))
	a.hashes = make([]uint64, len(a.Peers))
	for i := range a.Peers {
		a.flows[i] = a.flowKey(i)
		a.hashes[i] = a.flows[i].Hash()
	}
}

// flowKey builds peer i's flow key from the current attack fields.
func (a *Attack) flowKey(i int) netpkt.FlowKey {
	return netpkt.FlowKey{
		SrcMAC:  a.Peers[i].MAC,
		Src:     a.Peers[i].SrcIP,
		Dst:     a.Target,
		Proto:   netpkt.ProtoUDP,
		SrcPort: a.Vector.SrcPort,
		DstPort: 443, // reflected toward the service port under attack
	}
}

// ActiveAt reports whether the attack emits traffic at tick.
func (a *Attack) ActiveAt(tick int) bool {
	return tick >= a.StartTick && tick < a.EndTick
}

// rateAt returns the attack rate at tick including ramp-up.
func (a *Attack) rateAt(tick int) float64 {
	if !a.ActiveAt(tick) {
		return 0
	}
	if a.RampTicks > 0 && tick-a.StartTick < a.RampTicks {
		return a.RateBps * float64(tick-a.StartTick+1) / float64(a.RampTicks)
	}
	return a.RateBps
}

// Offers emits the attack's flow-level offers for one tick of dtSeconds.
func (a *Attack) Offers(tick int, dtSeconds float64) []fabric.Offer {
	return a.AppendOffers(nil, tick, dtSeconds)
}

// AppendOffers appends the tick's offers to dst and returns it —
// the buffer-reusing form the scenario engine drives (engine.OfferAppender).
func (a *Attack) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	rate := a.rateAt(tick)
	if rate == 0 {
		return dst
	}
	totalBytes := rate * dtSeconds / 8
	pktSize := float64(a.Vector.ResponseSize)
	if len(a.flows) != len(a.Peers) {
		a.precomputeFlows() // peers changed after construction
	}
	offers := dst
	for i := range a.Peers {
		b := totalBytes * a.weights[i]
		if b <= 0 {
			continue
		}
		// Revalidate the cached key (field compare, no hashing): Target,
		// Vector or a peer may have been mutated after construction. The
		// comparison checks the mutable fields in place rather than
		// building a throwaway key.
		if f := &a.flows[i]; f.SrcMAC != a.Peers[i].MAC || f.Src != a.Peers[i].SrcIP ||
			f.Dst != a.Target || f.SrcPort != a.Vector.SrcPort ||
			f.Proto != netpkt.ProtoUDP || f.DstPort != 443 {
			*f = a.flowKey(i)
			a.hashes[i] = f.Hash()
		}
		offers = append(offers, fabric.Offer{
			Flow:     a.flows[i],
			FlowHash: a.hashes[i],
			Bytes:    b,
			Packets:  b / pktSize,
		})
	}
	return offers
}

// PortMix is one (destination port, share) element of a service profile.
type PortMix struct {
	Port  uint16
	Share float64
}

// WebService generates the benign traffic of the victim service in
// Figure 2(c): HTTPS-dominated TCP traffic across a handful of ports.
// Flow keys and their hashes are cached so the per-tick path emits
// pre-hashed offers; cached keys are revalidated against the current
// fields each tick, so Target/Peers/Mix may be customized at any time.
type WebService struct {
	Target  netip.Addr
	Peers   []Peer
	RateBps float64
	// Mix is the destination-port mix; defaults to Figure 2(c)'s
	// pre-attack profile.
	Mix []PortMix

	weights []float64
	// flows/hashes are the precomputed (peer, mix) flow keys, flattened
	// peer-major, mirroring Attack's pre-hashed offers.
	flows  []netpkt.FlowKey
	hashes []uint64
}

// DefaultWebMix is the pre-attack port mix of the service in Figure 2(c):
// mostly HTTPS with HTTP, alternative HTTP and RTMP components.
func DefaultWebMix() []PortMix {
	return []PortMix{
		{Port: 443, Share: 0.55},
		{Port: 80, Share: 0.20},
		{Port: 8080, Share: 0.12},
		{Port: 1935, Share: 0.08},
		{Port: 22, Share: 0.05}, // "others"
	}
}

// NewWebService builds a benign web workload spread across peers.
func NewWebService(target netip.Addr, peers []Peer, rateBps float64, rng *stats.Rand) *WebService {
	w := &WebService{Target: target, Peers: peers, RateBps: rateBps, Mix: DefaultWebMix()}
	w.weights = make([]float64, len(peers))
	var sum float64
	for i := range peers {
		v := 0.5 + rng.Float64()
		w.weights[i] = v
		sum += v
	}
	for i := range w.weights {
		w.weights[i] /= sum
	}
	return w
}

// flowKey builds the flow of peer i's traffic to mix element j from the
// current service fields.
func (w *WebService) flowKey(i, j int) netpkt.FlowKey {
	return netpkt.FlowKey{
		SrcMAC:  w.Peers[i].MAC,
		Src:     w.Peers[i].SrcIP,
		Dst:     w.Target,
		Proto:   netpkt.ProtoTCP,
		SrcPort: 40000 + w.Mix[j].Port, // stable per-port client flow
		DstPort: w.Mix[j].Port,
	}
}

// Offers emits the service's offers for one tick.
func (w *WebService) Offers(tick int, dtSeconds float64) []fabric.Offer {
	return w.AppendOffers(nil, tick, dtSeconds)
}

// AppendOffers appends the tick's offers to dst and returns it —
// the buffer-reusing form the scenario engine drives (engine.OfferAppender).
func (w *WebService) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	totalBytes := w.RateBps * dtSeconds / 8
	if n := len(w.Peers) * len(w.Mix); len(w.flows) != n {
		w.flows = make([]netpkt.FlowKey, n)
		w.hashes = make([]uint64, n)
	}
	offers := dst
	for i := range w.Peers {
		peerBytes := totalBytes * w.weights[i]
		for j, m := range w.Mix {
			b := peerBytes * m.Share
			if b <= 0 {
				continue
			}
			k := i*len(w.Mix) + j
			// Revalidate the cached key (field compare, no hashing).
			if f := &w.flows[k]; f.SrcMAC != w.Peers[i].MAC || f.Src != w.Peers[i].SrcIP ||
				f.Dst != w.Target || f.DstPort != m.Port ||
				f.Proto != netpkt.ProtoTCP || f.SrcPort != 40000+m.Port {
				*f = w.flowKey(i, j)
				w.hashes[k] = f.Hash()
			}
			offers = append(offers, fabric.Offer{
				Flow:     w.flows[k],
				FlowHash: w.hashes[k],
				Bytes:    b,
				Packets:  b / 900,
			})
		}
	}
	return offers
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
			Name:  fmt.Sprintf("peer%03d", i),
			MAC:   mac,
			SrcIP: netip.AddrFrom4([4]byte{198, 51, byte(100 + i/256), byte(i % 256)}),
		}
	}
	return peers
}
