package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/conformance"
	"stellar/internal/member"
	"stellar/internal/mitigation"
)

// ntpPort is the UDP source port that tells the attack class (NTP
// reflection) from the benign traffic at the victim's flow monitor.
const ntpPort = 123

// compareRow is one technique's measured outcome.
type compareRow struct {
	Technique mitigation.Technique
	// BenignDeliveredFrac is the fraction of benign traffic surviving.
	BenignDeliveredFrac float64
	// AttackResidualFrac is the fraction of attack traffic still hitting
	// the victim (for ACL: still consuming the member port).
	AttackResidualFrac float64
	// PortCongested reports whether the member port stayed saturated.
	PortCongested bool
	// CostPerHour is the recurring fee (only TSS bills per byte).
	CostPerHour float64
}

// compareResult is the full comparison: the shared workload and one row
// per technique.
type compareResult struct {
	AttackBps, WebBps, PortBps float64
	HonoringFraction           float64
	Rows                       []compareRow
}

// compareMitigations quantifies Table 1 on one concrete attack: the
// profile's workload ("paper-table1") under each technique, every one a
// signal the exchange already understands, sent at tick 0. Attack
// (UDP/123) and benign bytes are read off the victim's flow monitor.
// RTBH null-routes the /32 at the honoring members through the route
// server's export. ACL is the unmitigated run: the border filter acts
// after the port, so the residual is zero but the port congests. TSS is
// the scrubber model on the offered load; a detour never reaches the
// port. Advanced Blackholing is one UDP/123 drop on the victim's port.
//
// Flowspec is one per-peer UDP/123 drop at the exchange for each
// honoring member, the set RTBH null-routes. A peer that accepts the
// FlowSpec rule removes its own NTP before the victim port, and a
// per-peer drop removes exactly those bytes there; only whose filter
// capacity is spent differs, which the table does not report. The row
// moves onto the FlowSpec export role (ROADMAP item 3) once it exists.
func compareMitigations(p *conformance.Profile) (compareResult, error) {
	attackOff, webOff := offeredBytes(p)
	ticks := float64(p.Run.Ticks)
	res := compareResult{
		AttackBps: attackOff * 8 / ticks, WebBps: webOff * 8 / ticks,
		PortBps: p.Topology.PortCapacityBps, HonoringFraction: p.Topology.HonoringFraction,
	}
	row := func(t mitigation.Technique, channel string, events []conformance.EventSpec) (compareRow, error) {
		d, err := deliver(p, channel, events)
		if err != nil {
			return compareRow{}, err
		}
		return compareRow{Technique: t, BenignDeliveredFrac: d.benign / webOff,
			AttackResidualFrac: d.attack / attackOff, PortCongested: d.congested}, nil
	}

	rtbh, err := row(mitigation.RTBH, conformance.ChannelRTBH, []conformance.EventSpec{{Action: "rtbh"}})
	if err != nil {
		return compareResult{}, err
	}
	acl, err := row(mitigation.ACL, p.Channel, nil)
	if err != nil {
		return compareResult{}, err
	}
	acl.AttackResidualFrac = 0 // the border filter removes what the port let through
	fs, err := row(mitigation.Flowspec, conformance.ChannelAPI, flowspecEvents(p))
	if err != nil {
		return compareResult{}, err
	}
	scrubber := newScrubber()
	scrub := scrubber.Scrub(attackOff, webOff, ticks)
	tss := compareRow{
		Technique:           mitigation.TSS,
		BenignDeliveredFrac: scrub.CleanBenignBytes / webOff,
		AttackResidualFrac:  scrub.LeakedAttackBytes / attackOff,
		CostPerHour:         scrubber.TotalCost * 3600 / ticks,
	}
	advbh, err := row(mitigation.AdvancedBlackholing, conformance.ChannelAPI,
		[]conformance.EventSpec{ntpSignal("drop", 0)})
	if err != nil {
		return compareResult{}, err
	}
	res.Rows = []compareRow{rtbh, acl, fs, tss, advbh}
	return res, nil
}

// offeredBytes sums the victim's declared source rates over the run by
// class: attack sources are the attack, every other source benign.
// The profile's offered_bps expectation pins that the sources deliver
// their declared rates (no ramp, on for the whole run).
func offeredBytes(p *conformance.Profile) (attack, web float64) {
	for _, s := range p.Victims[0].Sources {
		b := s.RateBps * float64(p.Run.Ticks) / 8
		if s.Kind == "attack" {
			attack += b
		} else {
			web += b
		}
	}
	return attack, web
}

// ntpSignal is a mitigation of the victim's UDP/123 traffic with the
// given effect.
func ntpSignal(effect string, rateBps float64) conformance.EventSpec {
	port := ntpPort
	return conformance.EventSpec{Action: "mitigate",
		Match: conformance.MatchSpec{Proto: "udp", SrcPort: &port}, Effect: effect, RateBps: rateBps}
}

// flowspecEvents is one per-peer UDP/123 drop for each member of the
// profile's population that honors RTBH, the victim excepted.
func flowspecEvents(p *conformance.Profile) []conformance.EventSpec {
	members := member.MakePopulation(member.PopulationConfig{
		N:                p.Topology.Members,
		HonoringFraction: p.Topology.HonoringFraction,
		PortCapacityBps:  p.Topology.PortCapacityBps,
		Seed:             p.Topology.Seed,
	})
	var out []conformance.EventSpec
	for i, m := range members {
		if i == p.Victims[0].Member || !m.HonorsRTBH() {
			continue
		}
		ev := ntpSignal("drop", 0)
		ev.Scope, ev.Peers = conformance.ScopePerPeer, conformance.PeerRange{From: i, Count: 1}
		out = append(out, ev)
	}
	return out
}

// delivery is one run's traffic at the victim port, by class.
type delivery struct {
	attack, benign float64
	congested      bool
}

// deliver runs a copy of the profile on the given channel with the given
// events and reads the victim's delivered bytes per class.
func deliver(p *conformance.Profile, channel string, events []conformance.EventSpec) (delivery, error) {
	q := *p
	q.Channel, q.Events = channel, events
	run, err := conformance.Run(&q)
	if err != nil {
		return delivery{}, err
	}
	var d delivery
	series := run.Series[0]
	for _, bin := range series.Monitor.Bins() {
		atk := series.Monitor.SrcPortBytes(bin, ntpPort)
		d.attack += atk
		d.benign += series.Monitor.TotalBytes(bin) - atk
	}
	for _, s := range series.Samples {
		if s.CongestionDroppedBps > 0 {
			d.congested = true
		}
	}
	return d, nil
}

// newScrubber is the scrubbing service both TSS deployments use.
func newScrubber() *mitigation.Scrubber {
	return &mitigation.Scrubber{CapacityBps: 10e9, DetectionRate: 0.995, FalsePositiveRate: 0.005, CostPerGB: 1.5}
}

// Format renders the comparison.
func (r compareResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Quantitative Table-1 check: %.0f Mbps NTP attack + %.0f Mbps web into a %.0f Mbps port (honoring %.0f%%)\n",
		r.AttackBps/1e6, r.WebBps/1e6, r.PortBps/1e6, r.HonoringFraction*100)
	header := []string{"technique", "benign delivered", "attack residual", "port congested", "cost/h"}
	var rows [][]string
	for _, row := range r.Rows {
		cost := "-"
		if row.CostPerHour > 0 {
			cost = fmt.Sprintf("$%.0f", row.CostPerHour)
		}
		rows = append(rows, []string{
			row.Technique.String(),
			fmt.Sprintf("%5.1f%%", row.BenignDeliveredFrac*100),
			fmt.Sprintf("%5.1f%%", row.AttackResidualFrac*100),
			fmt.Sprintf("%v", row.PortCongested),
			cost,
		})
	}
	b.WriteString(formatTable(header, rows))
	return b.String()
}

// combinedTSSResult quantifies the Section 6 discussion: Advanced
// Blackholing as a pre-filter drastically reduces scrubbing cost
// without losing efficacy.
type combinedTSSResult struct {
	TSSAloneCostPerHour  float64
	CombinedCostPerHour  float64
	TSSAloneBenignFrac   float64
	CombinedBenignFrac   float64
	SavingsFrac          float64
	SampleToScrubberMbps float64 // shaped telemetry feed to the scrubber
}

// combinedTSS runs the profile's attack through (a) a scrubbing service
// alone, the same scrubber arithmetic as compareMitigations' TSS row,
// and (b) Stellar shaping UDP/123 to a 50 Mbps sample on the victim's
// port: benign traffic flows directly, and only the sample, read off the
// victim's flow monitor, is scrubbed for signature extraction.
func combinedTSS(p *conformance.Profile) (combinedTSSResult, error) {
	const sampleRateBps = 50e6
	attackOff, webOff := offeredBytes(p)
	ticks := float64(p.Run.Ticks)

	scrubAll := newScrubber()
	alone := scrubAll.Scrub(attackOff, webOff, ticks)

	d, err := deliver(p, conformance.ChannelAPI, []conformance.EventSpec{ntpSignal("shape", sampleRateBps)})
	if err != nil {
		return combinedTSSResult{}, err
	}
	scrubSample := newScrubber()
	scrubSample.Scrub(d.attack, 0, ticks)

	hours := ticks / 3600
	res := combinedTSSResult{
		TSSAloneCostPerHour:  scrubAll.TotalCost / hours,
		CombinedCostPerHour:  scrubSample.TotalCost / hours,
		TSSAloneBenignFrac:   alone.CleanBenignBytes / webOff,
		CombinedBenignFrac:   d.benign / webOff,
		SampleToScrubberMbps: d.attack * 8 / ticks / 1e6,
	}
	if res.TSSAloneCostPerHour > 0 {
		res.SavingsFrac = 1 - res.CombinedCostPerHour/res.TSSAloneCostPerHour
	}
	return res, nil
}

// Format renders the combined-deployment economics.
func (r combinedTSSResult) Format() string {
	var b strings.Builder
	b.WriteString("Section 6: combining Advanced Blackholing with traffic scrubbing\n")
	header := []string{"deployment", "benign delivered", "scrubbing cost/h"}
	rows := [][]string{
		{"TSS alone (full detour)", fmt.Sprintf("%5.1f%%", r.TSSAloneBenignFrac*100),
			fmt.Sprintf("$%.2f", r.TSSAloneCostPerHour)},
		{"Stellar pre-filter + TSS sample", fmt.Sprintf("%5.1f%%", r.CombinedBenignFrac*100),
			fmt.Sprintf("$%.2f", r.CombinedCostPerHour)},
	}
	b.WriteString(formatTable(header, rows))
	fmt.Fprintf(&b, "\nscrubbing cost reduced by %.1f%%; scrubber still receives a %.0f Mbps attack sample for signature extraction\n",
		r.SavingsFrac*100, r.SampleToScrubberMbps)
	return b.String()
}
