package fabric

import (
	"errors"
	"slices"
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

// TickOffers is the flow-level input to one simulation tick: offers
// grouped by destination port name.
type TickOffers map[string][]Offer

// TickBatch is one tick of the platform laid out by index: the offered
// ports in name order, each port's offers and, once Tick returns, each
// port's result. It is reusable scratch: Load refills it from a tick's
// offers and every slice keeps its capacity, so a batch kept from tick
// to tick costs no allocation once it has seen the port count.
type TickBatch struct {
	// Names are the offered ports, in name order.
	Names []string
	// Offers[i] is what port Names[i] is offered. A caller may replace
	// it between Load and Tick (the exchange's null-route filter does);
	// Tick clears it, so a batch kept between ticks pins no offers.
	Offers [][]Offer
	// Results[i] is port Names[i]'s account of the tick, set by Tick.
	Results []TickResult

	// ports[i] is port Names[i], resolved by Tick; dt and sink are the
	// running tick's; egressFn is bound's egress, bound once so a tick's
	// fan-out allocates no closure (a copied batch binds its own).
	ports    []*Port
	dt       float64
	sink     TickSink
	bound    *TickBatch
	egressFn func(worker, i int)
}

// Load sets the batch to offers' ports, in name order, with their
// offers.
func (b *TickBatch) Load(offers TickOffers) {
	b.Names = b.Names[:0]
	for name := range offers {
		b.Names = append(b.Names, name)
	}
	slices.Sort(b.Names)
	b.Offers = b.Offers[:0]
	for _, name := range b.Names {
		b.Offers = append(b.Offers, offers[name])
	}
}

// egress runs port i's egress on worker.
func (b *TickBatch) egress(worker, i int) {
	var visit FlowVisitor
	if b.sink != nil {
		visit = b.sink(worker, b.Names[i])
	}
	b.Results[i] = b.ports[i].egress(b.Offers[i], b.dt, visit)
}

// TickSink supplies the per-(worker, port) FlowVisitor of a tick: Tick
// calls it once per port from the worker that egresses the port, and
// hands that port's delivered flows to the returned visitor as one batch
// (nil skips the port). Implementations must be safe to call from
// concurrent workers; worker is below the runner's Workers(), so state
// kept per worker is contention-free.
type TickSink func(worker int, port string) FlowVisitor

// Tick advances the platform by dtSeconds, delivering the batch's
// offers, and sets b.Results[i] to port b.Names[i]'s result. It fails
// with ErrNoSuchPort, egressing nothing, when a name is not a port.
//
// Member ports are independent egress engines, so their ticks fan across
// the runner's workers (the engine passes its shared Pool; nil runs them
// inline, see run). All records of one port flow through exactly one
// worker in forward-queue order into the sink's visitor for that port
// (a nil sink skips monitoring), and each result lands at its port's
// index, so results and downstream accumulation are deterministic. Each
// result carries its PresentedBytes, so no caller sums the offers again.
//
// The batch is the tick's only scratch: ports resolve into it and
// results come back in it, so a warm tick allocates nothing here.
func (f *Fabric) Tick(r Runner, b *TickBatch, dtSeconds float64, sink TickSink) error {
	defer clear(b.Offers)
	n := len(b.Names)
	b.ports = slices.Grow(b.ports[:0], n)[:n]
	f.mu.RLock()
	for i, name := range b.Names {
		b.ports[i] = f.byNam[name]
	}
	f.mu.RUnlock()
	if slices.Contains(b.ports, nil) {
		return ErrNoSuchPort
	}
	b.Results = slices.Grow(b.Results[:0], n)[:n]
	if b.bound != b {
		b.bound, b.egressFn = b, b.egress
	}
	b.dt, b.sink = dtSeconds, sink
	run(r, n, b.egressFn)
	b.sink = nil
	return nil
}
