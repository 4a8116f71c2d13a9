package fabric

import (
	"errors"
	"sort"
	"sync"

	"stellar/internal/netpkt"
)

// Fabric is the IXP's switching platform: a set of member ports bridged
// on one peering LAN. Forwarding is by destination MAC, as on a real IXP
// where members resolve each other's router MACs via ARP on the LAN.
//
// The platform itself is modeled with ample core capacity (the paper's
// L-IXP carries 25 Tbps of connected capacity); the bottleneck — and the
// place where Stellar's egress QoS policies act — is the destination
// member port.
type Fabric struct {
	mu    sync.RWMutex
	ports map[netpkt.MAC]*Port
	byNam map[string]*Port
	// PlatformCapacityBps caps the sum of traffic the platform carries
	// per tick; 0 means unconstrained. It exists for the egress-vs-
	// ingress filtering ablation (small IXPs, Section 4.5).
	PlatformCapacityBps float64
}

// New returns an empty fabric.
func New() *Fabric {
	return &Fabric{ports: make(map[netpkt.MAC]*Port), byNam: make(map[string]*Port)}
}

// Errors.
var (
	ErrDuplicatePort = errors.New("fabric: duplicate port")
	ErrNoSuchPort    = errors.New("fabric: no such port")
)

// AddPort attaches a member port to the peering LAN.
func (f *Fabric) AddPort(p *Port) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.ports[p.MAC]; ok {
		return ErrDuplicatePort
	}
	if _, ok := f.byNam[p.Name]; ok {
		return ErrDuplicatePort
	}
	f.ports[p.MAC] = p
	f.byNam[p.Name] = p
	return nil
}

// PortByMAC looks a port up by MAC address.
func (f *Fabric) PortByMAC(mac netpkt.MAC) (*Port, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.ports[mac]
	if !ok {
		return nil, ErrNoSuchPort
	}
	return p, nil
}

// PortByName looks a port up by name.
func (f *Fabric) PortByName(name string) (*Port, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.byNam[name]
	if !ok {
		return nil, ErrNoSuchPort
	}
	return p, nil
}

// Ports returns all ports sorted by name.
func (f *Fabric) Ports() []*Port {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Port, 0, len(f.byNam))
	for _, p := range f.byNam {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TickOffers is the flow-level input to one simulation tick: offers
// grouped by destination port name.
type TickOffers map[string][]Offer

// TickStats aggregates one tick across the platform.
type TickStats struct {
	PerPort map[string]TickResult
	// PlatformOfferedBytes is the pre-filter load on the platform core.
	PlatformOfferedBytes float64
	// PlatformDroppedBytes counts bytes the core itself had to shed
	// (only when PlatformCapacityBps is set and exceeded).
	PlatformDroppedBytes float64
}

// TotalDeliveredBytes sums delivered bytes across ports.
func (t TickStats) TotalDeliveredBytes() float64 {
	var s float64
	for _, r := range t.PerPort {
		s += r.DeliveredBytes
	}
	return s
}

// TickSink supplies the per-(worker, port) FlowVisitor of a tick: Tick
// calls it once per port from the worker that egresses the port, and
// hands that port's delivered flows to the returned visitor as one batch
// (nil skips the port). Implementations must be safe to call from
// concurrent workers; worker is below the runner's Workers(), so
// per-worker state (e.g. a flowmon shard per worker) is contention-free.
type TickSink func(worker int, port string) FlowVisitor

// Tick advances the platform by dtSeconds, delivering all offers.
//
// Member ports are independent egress engines, so their ticks fan across
// the runner's workers (the engine passes its shared Pool; nil runs them
// inline, see run) and the per-port results are merged afterwards. All
// records of one port flow through exactly one worker in forward-queue
// order into the sink's visitor for that port (a nil sink skips
// monitoring), and the merge is keyed by port name, so results and
// downstream accumulation are deterministic. Each port's result carries
// its PresentedBytes, so no caller sums the offers again.
func (f *Fabric) Tick(r Runner, offers TickOffers, dtSeconds float64, sink TickSink) (TickStats, error) {
	stats := TickStats{PerPort: make(map[string]TickResult, len(offers))}

	names := make([]string, 0, len(offers))
	for name := range offers {
		names = append(names, name)
	}
	sort.Strings(names)
	ports := make([]*Port, len(names))
	for i, name := range names {
		port, err := f.PortByName(name)
		if err != nil {
			return stats, err
		}
		ports[i] = port
	}

	// Platform core admission: proportional shed when the core is the
	// bottleneck (ingress-filtering ablation / small-IXP scenario). Only
	// a capped core needs the platform total before the fan-out; without
	// one, each port's egress loop sums its own offers as it reads them.
	scale := 1.0
	if f.PlatformCapacityBps > 0 {
		var offered float64
		for _, name := range names {
			os := offers[name]
			for i := range os {
				offered += os[i].Bytes
			}
		}
		capBytes := f.PlatformCapacityBps * dtSeconds / 8
		if offered > capBytes && offered > 0 {
			scale = capBytes / offered
			stats.PlatformDroppedBytes = offered - capBytes
		}
	}

	results := make([]TickResult, len(names))
	run(r, len(names), func(worker, i int) {
		var visit FlowVisitor
		if sink != nil {
			visit = sink(worker, names[i])
		}
		results[i] = ports[i].egress(offers[names[i]], scale, dtSeconds, visit)
	})
	for i, name := range names {
		stats.PerPort[name] = results[i]
		stats.PlatformOfferedBytes += results[i].PresentedBytes
	}
	return stats, nil
}
