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

// deliverAll is a data plane that delivers every offer, streaming each
// flow into the run's monitors from worker 0.
type deliverAll struct{}

func (deliverAll) EgressTick(_ fabric.Runner, offers fabric.TickOffers, _ float64, sink fabric.TickSink) (map[string]engine.PortReport, error) {
	reports := make(map[string]engine.PortReport, len(offers))
	for port, os := range offers {
		visit := sink(0, port)
		var sum float64
		for _, o := range os {
			sum += o.Bytes
			if visit != nil {
				visit(o.Flow, o.FlowHash, o.Bytes)
			}
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

func (s peerSource) Offers(tick int, _ float64) []fabric.Offer {
	out := make([]fabric.Offer, s.activePeers(tick))
	for p := range out {
		flow := netpkt.FlowKey{
			SrcMAC:  netpkt.MAC{0x02, 0x30, 0, 0, s.victim, byte(p)},
			Src:     netip.AddrFrom4([4]byte{198, 51, s.victim, byte(p)}),
			Dst:     netip.AddrFrom4([4]byte{100, 64, 0, s.victim}),
			Proto:   netpkt.ProtoUDP,
			SrcPort: 123,
			DstPort: 443,
		}
		out[p] = fabric.Offer{Flow: flow, FlowHash: flow.Hash(), Bytes: 1e5, Packets: 100}
	}
	return out
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
