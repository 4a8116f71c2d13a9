package traffic

import (
	"net/netip"
	"slices"

	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// The paper's two-week IPFIX study (Section 2.3) is not redistributable,
// so the trace generator below synthesizes blackholing-event samples
// calibrated to the published aggregates: the UDP source-port shares of
// Figure 3(a), the protocol mix (UDP 99.94% of blackholed bytes vs TCP
// 86.81% of other traffic), and the announcement-policy shares of
// Figure 3(b). The analysis pipeline (Welch's t-test, confidence
// intervals, policy classification) runs unchanged on these samples.

// PortShareProfile maps UDP source ports to their mean byte share of a
// traffic class; the residual mass is attributed to "other" ports.
type PortShareProfile struct {
	Shares map[uint16]float64
	// RelStd is the relative standard deviation of per-event shares
	// around the mean (events differ in attack composition).
	RelStd float64
}

// RTBHPortProfile is the mean port composition of blackholed traffic in
// Figure 3(a): ports 0, 123 (NTP), 389 (LDAP), 11211 (memcached),
// 53 (DNS) and 19 (chargen) dominate.
func RTBHPortProfile() PortShareProfile {
	return PortShareProfile{
		Shares: map[uint16]float64{
			0:     0.27,
			123:   0.22,
			389:   0.15,
			11211: 0.11,
			53:    0.08,
			19:    0.045,
		},
		RelStd: 0.35,
	}
}

// OtherPortProfile is the port composition of non-blackholed traffic:
// the amplification ports are a vanishing fraction.
func OtherPortProfile() PortShareProfile {
	return PortShareProfile{
		Shares: map[uint16]float64{
			0:     0.004,
			123:   0.003,
			389:   0.001,
			11211: 0.002,
			53:    0.012,
			19:    0.0005,
		},
		RelStd: 0.30,
	}
}

// ProtoMix is the (UDP, TCP, other) byte-share mix of a traffic class.
type ProtoMix struct {
	UDP, TCP, Other float64
}

// RTBHProtoMix returns Section 2.3's blackholed-traffic protocol mix.
func RTBHProtoMix() ProtoMix { return ProtoMix{UDP: 0.9994, TCP: 0.0003, Other: 0.0003} }

// OtherProtoMix returns the non-blackholed mix.
func OtherProtoMix() ProtoMix { return ProtoMix{UDP: 0.1289, TCP: 0.8681, Other: 0.0030} }

// EventSample is the port decomposition of one blackholing event (or one
// equal-duration sample of background traffic).
type EventSample struct {
	// PortShare maps each profiled UDP source port to its byte share in
	// this event; Other carries the rest.
	PortShare map[uint16]float64
	Other     float64
}

// SampleEvent draws one event from the profile: mean shares perturbed by
// lognormal-ish multiplicative noise and renormalized, preserving the
// profile's expected ordering while giving realistic event-to-event
// variance for the significance test. Ports are perturbed in ascending
// order so a seeded rng yields the same event on every run (map
// iteration order must not leak into the draw sequence).
func SampleEvent(p PortShareProfile, rng *stats.Rand) EventSample {
	shares := make(map[uint16]float64, len(p.Shares))
	var sum float64
	ports := sortedPorts(p.Shares)
	for _, port := range ports {
		noise := 1 + rng.NormFloat64()*p.RelStd
		if noise < 0.05 {
			noise = 0.05
		}
		v := p.Shares[port] * noise
		shares[port] = v
		sum += v
	}
	// Residual ("others") mass, also noisy. Subtract in sorted order
	// too: float summation order is part of determinism.
	meanOther := 1.0
	for _, port := range ports {
		meanOther -= p.Shares[port]
	}
	if meanOther < 0 {
		meanOther = 0
	}
	other := meanOther * (1 + rng.NormFloat64()*p.RelStd)
	if other < 0.01 {
		other = 0.01
	}
	total := sum + other
	for port := range shares {
		shares[port] /= total
	}
	return EventSample{PortShare: shares, Other: other / total}
}

// sortedPorts returns the profile's ports ascending.
func sortedPorts(shares map[uint16]float64) []uint16 {
	ports := make([]uint16, 0, len(shares))
	for port := range shares {
		ports = append(ports, port)
	}
	slices.Sort(ports)
	return ports
}

// SampleEvents draws n independent events.
func SampleEvents(p PortShareProfile, n int, rng *stats.Rand) []EventSample {
	out := make([]EventSample, n)
	for i := range out {
		out[i] = SampleEvent(p, rng)
	}
	return out
}

// AnnouncementPolicy classifies the export policy of one RTBH
// announcement at the route server, mirroring Figure 3(b)'s x-axis: how
// many route-server peers the prefix owner asked to blackhole.
type AnnouncementPolicy struct {
	// Label is the paper's category ("All", "All-1", ..., or an AS count
	// for announcements targeted at specific peers).
	Label string
	// Share is the fraction of blackholing announcements using this
	// policy.
	Share float64
}

// PolicyShares returns Figure 3(b)'s published distribution: 93.97% of
// announcements ask all peers to blackhole; small minorities carve out
// exceptions or target specific ASes.
func PolicyShares() []AnnouncementPolicy {
	return []AnnouncementPolicy{
		{Label: "All-18", Share: 0.0003},
		{Label: "All-5", Share: 0.0049},
		{Label: "All-4", Share: 0.0013},
		{Label: "All-1", Share: 0.0528},
		{Label: "All", Share: 0.9397},
		{Label: "20", Share: 0.0006},
		{Label: "21", Share: 0.0003},
	}
}

// SamplePolicies draws n announcement policies from the published
// distribution.
func SamplePolicies(n int, rng *stats.Rand) []AnnouncementPolicy {
	dist := PolicyShares()
	weights := make([]float64, len(dist))
	for i, d := range dist {
		weights[i] = d.Share
	}
	out := make([]AnnouncementPolicy, n)
	for i := range out {
		out[i] = dist[rng.WeightedChoice(weights)]
	}
	return out
}

// Trace is the pcap-less trace-replay generator: since the paper's
// two-week IPFIX capture is not redistributable, it replays a per-tick
// rate series whose UDP source-port composition follows sampled
// blackholing events (SampleEvent) — one sampled composition per
// segment of SegmentTicks ticks, so the replay exhibits the published
// event-to-event variance instead of a frozen mix. It implements the
// engine's Source/OfferAppender contract, which makes a recorded trace
// a drop-in replacement for a synthetic Attack in any driver.
//
// Construct with NewTrace: the sampled segments and the per-(peer,port)
// flow table are precomputed there, and the Trace's offers point into
// that table, which it owns (fabric.Offer's pointer-lifetime rule). A
// Trace assembled by struct literal has no segments and emits nothing.
type Trace struct {
	// Target is the replayed victim address.
	Target netip.Addr
	// Peers carries the replayed traffic, weighted heavy-tailed like an
	// Attack's reflector population.
	Peers []Peer
	// RatesBps is the per-tick aggregate rate; ticks past the end reuse
	// the last value, an empty series emits nothing.
	RatesBps []float64
	// SegmentTicks is the dwell time of one sampled event composition
	// (<=1: a single composition covers the whole replay).
	SegmentTicks int

	segments []EventSample
	ports    []uint16 // profiled ports, deterministic order
	weights  []float64
	flows    []netpkt.FlowKey // (peer, port) flattened peer-major
	hashes   []uint64
}

// otherSrcPort carries the residual ("others") mass of a sampled event
// composition: a high ephemeral UDP source port outside every profiled
// amplification vector.
const otherSrcPort = 40123

// NewTrace builds a replay of len(ratesBps) ticks from the profile,
// sampling one event composition per segment with rng.
func NewTrace(p PortShareProfile, target netip.Addr, peers []Peer, ratesBps []float64, segmentTicks int, rng *stats.Rand) *Trace {
	t := &Trace{Target: target, Peers: peers, RatesBps: ratesBps, SegmentTicks: segmentTicks}
	if t.SegmentTicks < 1 {
		t.SegmentTicks = len(ratesBps)
		if t.SegmentTicks < 1 {
			t.SegmentTicks = 1
		}
	}
	nSeg := (len(ratesBps) + t.SegmentTicks - 1) / t.SegmentTicks
	if nSeg < 1 {
		nSeg = 1
	}
	t.segments = SampleEvents(p, nSeg, rng)

	// Profiled ports in deterministic (ascending) order, plus the
	// residual bucket last.
	t.ports = append(sortedPorts(p.Shares), otherSrcPort)

	t.weights = make([]float64, len(peers))
	var sum float64
	for i := range peers {
		w := rng.Pareto(1.0, 1.8)
		t.weights[i] = w
		sum += w
	}
	for i := range t.weights {
		t.weights[i] /= sum
	}

	t.flows = make([]netpkt.FlowKey, len(peers)*len(t.ports))
	t.hashes = make([]uint64, len(t.flows))
	for i := range peers {
		for j, port := range t.ports {
			k := i*len(t.ports) + j
			t.flows[k] = netpkt.FlowKey{
				SrcMAC:  peers[i].MAC,
				Src:     peers[i].SrcIP,
				Dst:     target,
				Proto:   netpkt.ProtoUDP,
				SrcPort: port,
				DstPort: 443,
			}
			t.hashes[k] = t.flows[k].Hash()
		}
	}
	return t
}

// rateAt returns the replayed aggregate rate at tick.
func (t *Trace) rateAt(tick int) float64 {
	if len(t.RatesBps) == 0 || tick < 0 {
		return 0
	}
	if tick >= len(t.RatesBps) {
		tick = len(t.RatesBps) - 1
	}
	return t.RatesBps[tick]
}

// segmentAt returns the sampled composition covering tick.
func (t *Trace) segmentAt(tick int) EventSample {
	i := 0
	if t.SegmentTicks > 0 {
		i = tick / t.SegmentTicks
	}
	if i < 0 {
		i = 0
	}
	if i >= len(t.segments) {
		i = len(t.segments) - 1
	}
	return t.segments[i]
}

// portShare returns the byte share of one profiled port (or the
// residual bucket) in the composition.
func (s EventSample) portShare(port uint16) float64 {
	if port == otherSrcPort {
		return s.Other
	}
	return s.PortShare[port]
}

// Offers emits the replay's flow-level offers for one tick.
func (t *Trace) Offers(tick int, dtSeconds float64) []fabric.Offer {
	return t.AppendOffers(nil, tick, dtSeconds)
}

// AppendOffers appends the tick's offers to dst and returns it — the
// buffer-reusing form the engine's traffic stage drives. dst grows at
// most once, to room for one offer per (peer, port) flow.
// Each offer's Flow points at the trace's key for its (peer, port)
// flow. The table is built once and never rewritten, so the key outlives
// the tick's egress.
func (t *Trace) AppendOffers(dst []fabric.Offer, tick int, dtSeconds float64) []fabric.Offer {
	rate := t.rateAt(tick)
	if rate <= 0 || len(t.segments) == 0 || len(t.weights) != len(t.Peers) {
		return dst // zero rate, or a Trace not built by NewTrace
	}
	dst = slices.Grow(dst, len(t.flows))
	seg := t.segmentAt(tick)
	totalBytes := rate * dtSeconds / 8
	for i := range t.Peers {
		peerBytes := totalBytes * t.weights[i]
		if peerBytes <= 0 {
			continue
		}
		for j, port := range t.ports {
			b := peerBytes * seg.portShare(port)
			if b <= 0 {
				continue
			}
			k := i*len(t.ports) + j
			dst = append(dst, fabric.Offer{
				Flow:     &t.flows[k],
				FlowHash: t.hashes[k],
				Bytes:    b,
				Packets:  b / 1200,
			})
		}
	}
	return dst
}
