package flowmon_test

import (
	"fmt"
	"net/netip"
	"testing"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
)

// deliverAll is a data plane that delivers every offer, handing each
// port's flows to the run's monitors as one batch from worker 0.
type deliverAll struct{}

func (deliverAll) EgressTick(_ fabric.Runner, offers fabric.TickOffers, _ float64, sink fabric.TickSink) (map[string]engine.PortReport, error) {
	reports := make(map[string]engine.PortReport, len(offers))
	for port, os := range offers {
		var sum float64
		delivered := make([]fabric.Delivery, len(os))
		for i := range os {
			sum += os[i].Bytes
			delivered[i] = fabric.Delivery{Offer: &os[i], Bytes: os[i].Bytes}
		}
		if visit := sink(0, port); visit != nil {
			visit(delivered)
		}
		reports[port] = engine.PortReport{OfferedBytes: sum, Result: fabric.TickResult{DeliveredBytes: sum}}
	}
	return reports, nil
}

// peerSource sends from tick%peers+1 distinct peers each tick, so every
// tick has its own peer count.
type peerSource struct {
	victim byte
	peers  int
}

func (s peerSource) activePeers(tick int) int { return tick%s.peers + 1 }

func (s peerSource) AppendOffers(dst []fabric.Offer, tick int, _ float64) []fabric.Offer {
	flows := make([]netpkt.FlowKey, s.activePeers(tick)) // the offers point into it
	for p := range flows {
		flow := &flows[p]
		*flow = netpkt.FlowKey{
			SrcMAC:  netpkt.MAC{0x02, 0x30, 0, 0, s.victim, byte(p)},
			Src:     netip.AddrFrom4([4]byte{198, 51, s.victim, byte(p)}),
			Dst:     netip.AddrFrom4([4]byte{100, 64, 0, s.victim}),
			Proto:   netpkt.ProtoUDP,
			SrcPort: 123,
			DstPort: 443,
		}
		dst = append(dst, fabric.Offer{Flow: flow, Bytes: 1e5, Packets: 100})
	}
	return dst
}

// TestEngineRetention runs the engine over 2 victims × 2000 ticks: the
// fold reads every tick's peers inside the window (ActivePeers is exact
// at every tick), and afterwards each monitor holds peer detail for at
// most PeerWindow bins while its roll-up still covers every tick. A
// shorter run at a pipeline depth far beyond the window pins the same
// ActivePeers series.
func TestEngineRetention(t *testing.T) {
	run := func(ticks, depth int) []engine.VictimSeries {
		t.Helper()
		specs := make([]engine.VictimSpec, 2)
		sources := make([][]engine.Source, 2)
		for v := range specs {
			specs[v] = engine.VictimSpec{Port: fmt.Sprintf("victim%d", v)}
			sources[v] = []engine.Source{peerSource{victim: byte(v), peers: 37 + v}}
		}
		pool := fabric.NewPool(2)
		defer pool.Close()
		series, err := engine.New(engine.Config{
			Driver:    engine.NewSourcesDriver(specs, sources),
			DataPlane: deliverAll{},
			Ticks:     ticks,
			Depth:     depth,
			Pool:      pool,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		for v, s := range series {
			src := peerSource{peers: 37 + v}
			for tick, sample := range s.Samples {
				if want := src.activePeers(tick); sample.ActivePeers != want {
					t.Fatalf("depth %d victim %d tick %d: ActivePeers %d, want %d", depth, v, tick, sample.ActivePeers, want)
				}
			}
			if bins := s.Monitor.Bins(); len(bins) != ticks {
				t.Fatalf("depth %d victim %d: %d bins, want %d", depth, v, len(bins), ticks)
			}
		}
		return series
	}

	for v, s := range run(2000, 0) {
		if held := flowmon.PeerDetailBins(s.Monitor); held > flowmon.PeerWindow {
			t.Fatalf("victim %d: %d bins hold peer detail, want <= %d", v, held, flowmon.PeerWindow)
		}
		if got := s.Monitor.TotalBytes(0); got != 1e5 {
			t.Fatalf("victim %d: tick 0 roll-up %v bytes, want 1e5", v, got)
		}
	}
	run(200, 3*flowmon.PeerWindow)
}
