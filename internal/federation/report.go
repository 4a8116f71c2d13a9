package federation

import (
	"fmt"
	"strings"

	"stellar/internal/engine"
)

// Report is the consolidated result of a federation run: every
// exchange's per-victim series, the federation-wide aggregate series,
// and one entry per gossiped mitigation spec measuring how the signal
// propagated. It marshals cleanly to JSON (unlike engine.VictimSeries,
// it carries no monitor handles).
type Report struct {
	Exchanges []ExchangeReport  `json:"exchanges"`
	Aggregate []AggregateSample `json:"aggregate"`
	Signals   []SignalReport    `json:"signals,omitempty"`
	// Ticks, Dt and GossipDelayTicks echo the run configuration.
	Ticks            int     `json:"ticks"`
	Dt               float64 `json:"dt_sec"`
	GossipDelayTicks int     `json:"gossip_delay_ticks"`
	// OfferedFlows is the total flow count generated across all
	// exchanges over the whole run.
	OfferedFlows int64 `json:"offered_flows"`
}

// ExchangeReport is one exchange's slice of the run.
type ExchangeReport struct {
	Name         string         `json:"name"`
	Victims      []VictimReport `json:"victims"`
	OfferedFlows int64          `json:"offered_flows"`
}

// VictimReport is one victim port's tick series at one exchange.
type VictimReport struct {
	Port    string          `json:"port"`
	Samples []engine.Sample `json:"samples"`
}

// AggregateSample sums one tick across every exchange and victim.
type AggregateSample struct {
	Tick           int     `json:"tick"`
	Time           float64 `json:"time_sec"`
	OfferedBps     float64 `json:"offered_bps"`
	DeliveredBps   float64 `json:"delivered_bps"`
	NulledBps      float64 `json:"nulled_bps"`
	RuleDroppedBps float64 `json:"rule_dropped_bps"`
	ActivePeers    int     `json:"active_peers"`
}

// SignalReport traces one gossiped mitigation spec: where it
// originated, where it was installed, and how long each install lagged
// the origin tick.
type SignalReport struct {
	ID         string `json:"id"`
	Origin     string `json:"origin"`
	OriginTick int    `json:"origin_tick"`
	// Installs lists every exchange the spec became active at, origin
	// included. PropagationTicks is install tick minus origin tick; it
	// can be negative when a later signal restates a spec an exchange
	// already installed.
	Installs []SignalInstall `json:"installs"`
	// Rejections lists exchanges whose local admission or IRR
	// validation refused the relayed request.
	Rejections []SignalRejection `json:"rejections,omitempty"`
	// MaxPropagationTicks is the slowest install's lag (-1 if the spec
	// was installed nowhere).
	MaxPropagationTicks int `json:"max_propagation_ticks"`
	// Complete reports whether every exchange installed the spec.
	Complete bool `json:"complete"`
}

// SignalInstall is one exchange's install of a gossiped spec.
type SignalInstall struct {
	Exchange         string `json:"exchange"`
	Tick             int    `json:"tick"`
	PropagationTicks int    `json:"propagation_ticks"`
}

// SignalRejection is one exchange's refusal of a relayed spec.
type SignalRejection struct {
	Exchange string `json:"exchange"`
	Error    string `json:"error"`
}

// buildReport consolidates the engines' series, the flow counters, the
// gossip signal log and the install ticks. Called after every engine
// goroutine has finished — no locks needed.
func (f *Federation) buildReport(series [][]engine.VictimSeries, flows []int64) *Report {
	n := len(f.cfg.exchanges)
	rep := &Report{
		Ticks:            f.cfg.ticks,
		Dt:               tickSec,
		GossipDelayTicks: f.gossip.DelayTicks(),
	}
	maxLen := 0
	for i := 0; i < n; i++ {
		er := ExchangeReport{Name: f.names[i], OfferedFlows: flows[i]}
		for _, vs := range series[i] {
			er.Victims = append(er.Victims, VictimReport{Port: vs.Port, Samples: vs.Samples})
			if len(vs.Samples) > maxLen {
				maxLen = len(vs.Samples)
			}
		}
		rep.OfferedFlows += flows[i]
		rep.Exchanges = append(rep.Exchanges, er)
	}
	for t := 0; t < maxLen; t++ {
		agg := AggregateSample{Tick: t, Time: float64(t) * tickSec}
		for i := range rep.Exchanges {
			for _, v := range rep.Exchanges[i].Victims {
				if t >= len(v.Samples) {
					continue
				}
				s := v.Samples[t]
				agg.OfferedBps += s.OfferedBps
				agg.DeliveredBps += s.DeliveredBps
				agg.NulledBps += s.NulledBps
				agg.RuleDroppedBps += s.RuleDroppedBps
				agg.ActivePeers += s.ActivePeers
			}
		}
		rep.Aggregate = append(rep.Aggregate, agg)
	}
	for _, s := range f.gossip.snapshot() {
		sr := SignalReport{
			ID:                  s.id,
			Origin:              f.names[s.origin],
			OriginTick:          s.originTick,
			MaxPropagationTicks: -1,
		}
		record := func(ex int) {
			if tick, ok := f.installs[installKey{s.id, ex}]; ok {
				p := tick - s.originTick
				sr.Installs = append(sr.Installs, SignalInstall{
					Exchange: f.names[ex], Tick: tick, PropagationTicks: p,
				})
				if p > sr.MaxPropagationTicks {
					sr.MaxPropagationTicks = p
				}
			}
		}
		record(s.origin)
		for _, d := range s.deliveries {
			if d.err != nil {
				sr.Rejections = append(sr.Rejections, SignalRejection{
					Exchange: f.names[d.ex], Error: d.err.Error(),
				})
				continue
			}
			record(d.ex)
		}
		sr.Complete = len(sr.Installs) == n
		rep.Signals = append(rep.Signals, sr)
	}
	return rep
}

// Format renders the human-readable run summary.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "federation: %d exchanges, %d ticks (dt %gs), gossip delay %d ticks, %d offered flows\n",
		len(r.Exchanges), r.Ticks, r.Dt, r.GossipDelayTicks, r.OfferedFlows)
	var peakOffered, peakNulled float64
	for _, a := range r.Aggregate {
		if a.OfferedBps > peakOffered {
			peakOffered = a.OfferedBps
		}
		if a.NulledBps+a.RuleDroppedBps > peakNulled {
			peakNulled = a.NulledBps + a.RuleDroppedBps
		}
	}
	fmt.Fprintf(&b, "  aggregate peak offered %.3g bps, peak nulled+dropped %.3g bps\n", peakOffered, peakNulled)
	for _, ex := range r.Exchanges {
		fmt.Fprintf(&b, "  %s: %d victims, %d offered flows\n", ex.Name, len(ex.Victims), ex.OfferedFlows)
	}
	for _, s := range r.Signals {
		status := fmt.Sprintf("installed at %d/%d exchanges", len(s.Installs), len(r.Exchanges))
		if s.Complete {
			status += fmt.Sprintf(", max propagation %d ticks", s.MaxPropagationTicks)
		}
		for _, rej := range s.Rejections {
			status += fmt.Sprintf(", rejected at %s (%s)", rej.Exchange, rej.Error)
		}
		fmt.Fprintf(&b, "  signal %s: origin %s tick %d, %s\n", s.ID, s.Origin, s.OriginTick, status)
	}
	return b.String()
}
