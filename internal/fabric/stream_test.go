package fabric

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"stellar/internal/netpkt"
)

// streamOffers builds a mixed offer set: benign forwarded flows, flows
// hitting a drop rule and flows through a shaping rule, with enough
// volume to congest the port — every egress queue contributes.
func streamOffers(n int) []Offer {
	offers := make([]Offer, n)
	keys := make([]netpkt.FlowKey, n) // the offers point into it
	for i := range offers {
		f := &keys[i]
		switch i % 3 {
		case 0:
			*f = *tcpFlow(macPeerA, srcIPA, 443)
			f.SrcPort = uint16(50000 + i)
		case 1:
			*f = *udpFlow(macPeerA, srcIPA, 123) // drop rule target
			f.Src = srcIPB
			f.SrcPort = 123
			f.DstPort = uint16(1000 + i)
		default:
			*f = *udpFlow(macPeerB, srcIPB, 53) // shape rule target
			f.DstPort = uint16(2000 + i)
		}
		offers[i] = Offer{Flow: f, Bytes: 2e6, Packets: 2000}
	}
	return offers
}

func streamRules(t *testing.T, p *Port) {
	t.Helper()
	drop := MatchAll()
	drop.Proto = netpkt.ProtoUDP
	drop.SrcPort = 123
	if err := p.InstallRule(&Rule{ID: "drop-ntp", Match: drop, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	shape := MatchAll()
	shape.Proto = netpkt.ProtoUDP
	shape.SrcPort = 53
	if err := p.InstallRule(&Rule{ID: "shape-dns", Match: shape, Action: ActionShape, ShapeRateBps: 1e7}); err != nil {
		t.Fatal(err)
	}
}

// TestEgressStreamNilVisitor: a nil visitor just skips monitoring; the
// totals still come out.
func TestEgressStreamNilVisitor(t *testing.T) {
	p := newVictimPort()
	offers := streamOffers(30)
	res := p.egress(offers, 1, nil)
	if res.DeliveredBytes <= 0 {
		t.Fatalf("no delivery: %+v", res)
	}
}

// TestTickStreamPerPortVisitors: each port's flows reach exactly its
// own visitor, in one batch, worker ids stay in range, and per-port
// streamed bytes equal the port's DeliveredBytes.
func TestTickStreamPerPortVisitors(t *testing.T) {
	const ports = 16
	f := New()
	offers := make(TickOffers, ports)
	for p := 0; p < ports; p++ {
		name := fmt.Sprintf("AS%d", 64512+p)
		mac := netpkt.MAC{0x02, 0x20, 0, 0, 0, byte(p)}
		if err := f.AddPort(NewPort(name, mac, 1e9)); err != nil {
			t.Fatal(err)
		}
		os := make([]Offer, 8)
		for i := range os {
			flow := tcpFlow(macPeerA, srcIPA, uint16(8000+i))
			flow.SrcMAC = netpkt.MAC{0x02, 0x30, 0, 0, byte(p), byte(i)}
			os[i] = Offer{Flow: flow, Bytes: 1e4, Packets: 10}
		}
		offers[name] = os
	}

	pool := NewPool(0)
	defer pool.Close()
	maxWorkers := pool.Workers()
	var mu sync.Mutex
	perPort := make(map[string]float64)
	batches := make(map[string]int)
	sink := func(worker int, port string) FlowVisitor {
		if worker < 0 || worker >= maxWorkers {
			t.Errorf("worker %d out of range [0,%d)", worker, maxWorkers)
		}
		return func(ds []Delivery) {
			mu.Lock()
			batches[port]++
			for _, d := range ds {
				perPort[port] += d.Bytes
			}
			mu.Unlock()
		}
	}
	stats, err := tickByName(f, pool, offers, 1, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(perPort) != ports {
		t.Fatalf("visitors saw %d ports, want %d", len(perPort), ports)
	}
	for name, res := range stats {
		if math.Abs(perPort[name]-res.DeliveredBytes) > 1e-9 {
			t.Fatalf("port %s: streamed %v, delivered %v", name, perPort[name], res.DeliveredBytes)
		}
		if batches[name] != 1 {
			t.Fatalf("port %s: %d visitor calls, want one batch", name, batches[name])
		}
	}
}

// visit is one delivery as a port's visitor saw it.
type visit struct {
	flow  netpkt.FlowKey
	bytes float64
}

// TestTickNilRunnerMatchesPool: the runner decides only where a port's
// egress runs. A nil Runner (inline, worker 0) and a 4-worker Pool produce
// identical results and, port by port, the identical visitor stream —
// every queue contributing, and the stream summing to the port's
// DeliveredBytes.
func TestTickNilRunnerMatchesPool(t *testing.T) {
	const ports = 12
	offers := make(TickOffers, ports)
	for p := 0; p < ports; p++ {
		offers[fmt.Sprintf("AS%d", 64512+p)] = streamOffers(30 + 3*p)
	}
	// A fresh fabric per run: shaping buckets carry state across ticks.
	build := func() *Fabric {
		f := New()
		for p := 0; p < ports; p++ {
			port := NewPort(fmt.Sprintf("AS%d", 64512+p), netpkt.MAC{0x02, 0x20, 0, 0, 0, byte(p)}, 1e8) // congested
			streamRules(t, port)
			if err := f.AddPort(port); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	tick := func(r Runner, workers int) (map[string]TickResult, map[string]*[]visit) {
		var mu sync.Mutex
		streams := make(map[string]*[]visit)
		sink := func(worker int, port string) FlowVisitor {
			if worker < 0 || worker >= workers {
				t.Errorf("worker %d out of range [0,%d)", worker, workers)
			}
			seen := new([]visit) // one worker egresses the port: no lock per visit
			mu.Lock()
			streams[port] = seen
			mu.Unlock()
			return func(ds []Delivery) {
				for _, d := range ds {
					*seen = append(*seen, visit{*d.Offer.Flow, d.Bytes})
				}
			}
		}
		stats, err := tickByName(build(), r, offers, 1, sink)
		if err != nil {
			t.Fatal(err)
		}
		return stats, streams
	}

	pool := NewPool(4)
	defer pool.Close()
	inlineStats, inlineStreams := tick(nil, 1)
	poolStats, poolStreams := tick(pool, pool.Workers())

	if !reflect.DeepEqual(inlineStats, poolStats) {
		t.Fatalf("results diverge:\n nil runner %+v\n pool       %+v", inlineStats, poolStats)
	}
	if !reflect.DeepEqual(inlineStreams, poolStreams) {
		t.Fatal("per-port visitor streams diverge between a nil runner and a pool")
	}
	for name, res := range inlineStats {
		var sum float64
		for _, v := range *inlineStreams[name] {
			sum += v.bytes
		}
		if sum != res.DeliveredBytes {
			t.Fatalf("port %s: streamed %v, delivered %v", name, sum, res.DeliveredBytes)
		}
		if res.RuleDroppedBytes == 0 || res.ShaperDroppedBytes == 0 || res.CongestionDroppedBytes == 0 {
			t.Fatalf("port %s: a queue saw no traffic: %+v", name, res)
		}
	}
}

// mallocs counts the heap allocations f makes, on one P so a parked
// worker's garbage does not count.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEgressStreamAllocations pins, as counts, what a port's positions
// cost around a rule change: nothing. The positions outlive the port's
// classifier generations and a rule change only makes their stamps old,
// so the first pass after any change allocates no positions: after an
// install that matches no flow, after removing the verdict of some
// flows, and after withdrawing every rule and installing one again, a
// signal's withdraw followed by the next announce.
func TestEgressStreamAllocations(t *testing.T) {
	const flows, ntp = 4096, 100
	p := newVictimPort()
	drop := MatchAll()
	drop.Proto = netpkt.ProtoUDP
	drop.SrcPort = 123
	dropUDP := Match{Proto: netpkt.ProtoUDP, SrcPort: AnyPort, DstPort: AnyPort}
	for _, r := range []*Rule{
		{ID: "drop-ntp", Match: drop, Action: ActionDrop},
		{ID: "drop-udp", Match: dropUDP, Action: ActionDrop},
	} {
		if err := p.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	offers := make([]Offer, flows)
	for i := range offers {
		f := tcpFlow(macPeerA, srcIPA, uint16(i))
		if i < ntp {
			f = udpFlow(macPeerA, srcIPA, 123)
			f.DstPort = uint16(i)
		}
		offers[i] = Offer{Flow: f, Bytes: 1000, Packets: 1}
	}
	pass := func() { p.egress(offers, 1, nil) }
	// The egress scratch comes from a sync.Pool, which the race detector
	// makes drop entries at random: allow the scratch's regrowth there.
	slack := uint64(0)
	if raceEnabled {
		slack = 32
	}
	pass()
	if got := uint64(testing.AllocsPerRun(20, pass)); got > slack {
		t.Errorf("warm pass: %d allocations, want 0", got)
	}
	after := func(change string, verdict string) {
		t.Helper()
		if got := mallocs(pass); got > slack {
			t.Errorf("first pass after %s: %d allocations for %d flows, want 0", change, got, flows)
		}
		if got := p.ClassifyHashed(offers[0].Flow, struct{}{}); (got == nil) != (verdict == "") || got != nil && got.ID != verdict {
			t.Fatalf("after %s: ntp flow classified %v, want %q", change, got, verdict)
		}
	}

	miss := MatchAll()
	miss.Proto = netpkt.ProtoICMP
	if err := p.InstallRule(&Rule{ID: "drop-icmp", Match: miss, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	after("an install that matches no flow", "drop-ntp")

	// The ntp flows fall through to drop-udp.
	if err := p.RemoveRule("drop-ntp"); err != nil {
		t.Fatal(err)
	}
	after(fmt.Sprintf("removing the verdict of %d flows", ntp), "drop-udp")

	for _, id := range []string{"drop-udp", "drop-icmp"} {
		if err := p.RemoveRule(id); err != nil {
			t.Fatal(err)
		}
	}
	after("removing every rule", "")
	if err := p.InstallRule(&Rule{ID: "drop-ntp", Match: drop, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	after("installing a rule on the rule-free port", "drop-ntp")
}
