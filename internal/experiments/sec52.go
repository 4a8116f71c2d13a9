package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/flowmon"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// Sec52Result is the lab functionality validation of Section 5.2: a
// 10 Gbps generator drives NTP, DNS and benign flows into a 1 Gbps
// member port, with NTP dropped and DNS shaped.
type Sec52Result struct {
	// Rates delivered per class, bps.
	NTPDeliveredBps    float64
	DNSDeliveredBps    float64
	BenignDeliveredBps float64
	BenignOfferedBps   float64
	DNSShapeRateBps    float64
}

// portPlane adapts a bare single-port fabric to engine.DataPlane: no
// IXP, no null routes — just the port's egress pass, exactly the data
// plane the Section 5.2 lab bench had.
type portPlane struct {
	fab *fabric.Fabric
}

func (p portPlane) EgressTick(r fabric.Runner, offers fabric.TickOffers, dt float64, sink fabric.TickSink) (map[string]engine.PortReport, error) {
	st, err := p.fab.Tick(r, offers, dt, sink)
	if err != nil {
		return nil, err
	}
	out := make(map[string]engine.PortReport, len(st.PerPort))
	for name, res := range st.PerPort {
		var offered float64
		for _, o := range offers[name] {
			offered += o.Bytes
		}
		out[name] = engine.PortReport{OfferedBytes: offered, Result: res}
	}
	return out, nil
}

// Sec52 reproduces the Section 5.2 lab experiment: flows redirected to
// the dropping queue are not forwarded; flows redirected to a shaping
// queue share the shaping rate; benign traffic passes the port
// untouched even though the generator exceeds the port capacity 10x.
//
// The run goes through the scenario engine — the same pipeline every
// other experiment and the conformance matrix use — with the victim's
// flow monitor providing the per-class accounting (classes are keyed by
// UDP source port, matching the lab's queue assignment).
func Sec52(seed uint64) (Sec52Result, error) {
	rng := stats.NewRand(seed)
	target := netip.MustParseAddr("100.10.10.10")
	victimMAC := netpkt.MustParseMAC("02:00:00:00:00:01")
	port := fabric.NewPort("victim", victimMAC, 1e9)

	dropNTP := fabric.MatchAll()
	dropNTP.Proto = netpkt.ProtoUDP
	dropNTP.SrcPort = 123
	if err := port.InstallRule(&fabric.Rule{ID: "drop-ntp", Match: dropNTP, Action: fabric.ActionDrop}); err != nil {
		return Sec52Result{}, err
	}
	shapeDNS := fabric.MatchAll()
	shapeDNS.Proto = netpkt.ProtoUDP
	shapeDNS.SrcPort = 53
	const dnsRate = 100e6
	if err := port.InstallRule(&fabric.Rule{ID: "shape-dns", Match: shapeDNS,
		Action: fabric.ActionShape, ShapeRateBps: dnsRate}); err != nil {
		return Sec52Result{}, err
	}
	fab := fabric.New()
	if err := fab.AddPort(port); err != nil {
		return Sec52Result{}, err
	}

	peers := traffic.MakePeers(8)
	ntp := traffic.NewAttack(traffic.VectorNTP, target, peers, 5e9, 0, 1000, rng)
	ntp.RampTicks = 0
	dns := traffic.NewAttack(traffic.VectorDNS, target, peers, 4.5e9, 0, 1000, rng)
	dns.RampTicks = 0
	web := traffic.NewWebService(target, peers[:3], 5e8, rng)

	const ticks = 30
	mon := flowmon.NewCollector()
	driver := engine.NewSourcesDriver(
		[]engine.VictimSpec{{Port: "victim", Monitor: mon}},
		[][]engine.Source{{ntp, dns, web}})
	if _, err := engine.New(engine.Config{
		Driver:    driver,
		DataPlane: portPlane{fab},
		Ticks:     ticks,
		Dt:        1,
	}).Run(); err != nil {
		return Sec52Result{}, err
	}

	var res Sec52Result
	res.DNSShapeRateBps = dnsRate
	for _, bin := range mon.Bins() {
		ntpBytes := mon.SrcPortBytes(bin, 123)
		dnsBytes := mon.SrcPortBytes(bin, 53)
		res.NTPDeliveredBps += ntpBytes * 8 / ticks
		res.DNSDeliveredBps += dnsBytes * 8 / ticks
		res.BenignDeliveredBps += (mon.TotalBytes(bin) - ntpBytes - dnsBytes) * 8 / ticks
	}
	res.BenignOfferedBps = 5e8
	return res, nil
}

// Format renders the validation summary.
func (r Sec52Result) Format() string {
	var b strings.Builder
	b.WriteString("Section 5.2 functionality: 10 Gbps generator into a 1 Gbps member port\n")
	header := []string{"class", "offered", "delivered", "expected"}
	rows := [][]string{
		{"NTP (drop queue)", "5.0 Gbps", fmt.Sprintf("%.1f Mbps", r.NTPDeliveredBps/1e6), "0"},
		{"DNS (shape queue)", "4.5 Gbps", fmt.Sprintf("%.1f Mbps", r.DNSDeliveredBps/1e6),
			fmt.Sprintf("%.0f Mbps", r.DNSShapeRateBps/1e6)},
		{"benign web", "0.5 Gbps", fmt.Sprintf("%.1f Mbps", r.BenignDeliveredBps/1e6), "500 Mbps (untouched)"},
	}
	b.WriteString(FormatTable(header, rows))
	return b.String()
}
