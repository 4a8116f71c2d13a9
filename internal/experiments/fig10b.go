package experiments

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/mitctl"
	"stellar/internal/stats"
)

// Fig10bConfig parameterizes the queueing study.
type Fig10bConfig struct {
	Seed uint64
	// Rates are the configuration-change dequeue limits to compare
	// (4/s and 5/s, bracketing the measured 4.33/s sustainable rate).
	Rates []float64
	// DurationSec is the replayed trace length.
	DurationSec float64
	// MaxBurstSize is the queue's MBS.
	MaxBurstSize int
}

// DefaultFig10bConfig mirrors the paper's replay.
func DefaultFig10bConfig() Fig10bConfig {
	return Fig10bConfig{Seed: 17, Rates: []float64{4, 5}, DurationSec: 6 * 3600, MaxBurstSize: 25}
}

// Fig10bCurve is the waiting-time distribution for one dequeue rate.
type Fig10bCurve struct {
	Rate float64
	// Waits are the per-change queueing delays in seconds.
	Waits []float64
	ECDF  *stats.ECDF
}

// Fig10bResult is Figure 10(b)'s CDF pair.
type Fig10bResult struct {
	Curves []Fig10bCurve
}

// generateChangeTrace synthesizes a configuration-change arrival trace
// with the character of the L-IXP RTBH service traces the paper replays:
// a steady trickle of individual blackholing changes punctuated by
// occasional large bursts (members scripting rule sets, attack onsets
// triggering many rules at once). Arrival times are returned sorted.
func generateChangeTrace(cfg Fig10bConfig, rng *stats.Rand) []float64 {
	var arrivals []float64
	t := 0.0
	for t < cfg.DurationSec {
		// Singleton changes: mean gap 0.5 s (≈2 changes/s trickle).
		t += rng.ExpFloat64() * 0.5
		if t >= cfg.DurationSec {
			break
		}
		if rng.Float64() < 0.0015 {
			// Burst: a batch of changes arriving together.
			size := int(rng.Pareto(40, 1.4))
			if size > 600 {
				size = 600
			}
			for i := 0; i < size; i++ {
				arrivals = append(arrivals, t)
			}
		} else {
			arrivals = append(arrivals, t)
		}
	}
	return arrivals
}

// Fig10b reproduces Figure 10(b): it replays the synthesized
// RTBH-service change trace through the blackholing controller itself —
// a mitctl.Controller paced at dequeue limits of 4/s and 5/s — and
// reports the CDF of the time from blackholing signal to configuration.
// Each arrival is one single-rule drop mitigation requested at its
// arrival time; its wait is InstalledAt − RequestedAt, read off the
// controller's EventInstalled stream. The paper's qualitative result:
// ~70% of changes wait under a second and the 95th percentile stays
// below 100 seconds.
func Fig10b(cfg Fig10bConfig) Fig10bResult {
	var res Fig10bResult
	for _, rate := range cfg.Rates {
		rng := stats.NewRand(cfg.Seed) // same trace for both rates
		arrivals := generateChangeTrace(cfg, rng)
		ctl := mitctl.New(mitctl.Config{Manager: nopManager{}, QueueRate: rate, QueueBurst: cfg.MaxBurstSize})
		var waits []float64
		ctl.Subscribe(func(ev mitctl.Event) {
			if ev.Type == mitctl.EventInstalled {
				waits = append(waits, ev.Time-ev.Mitigation.RequestedAt)
			}
		})
		spec := mitctl.Spec{
			Requester: "rtbh-service", Target: fig10bTarget,
			Match: fabric.MatchAll(), Action: fabric.ActionDrop,
		}
		i := 0
		// Drive the controller in 100 ms steps, requesting due arrivals.
		for now := 0.0; now <= cfg.DurationSec+3600; now += 0.1 {
			for i < len(arrivals) && arrivals[i] <= now {
				// Explicit IDs: every change shares requester and target,
				// so content-derived IDs would collide.
				spec.ID = "change-" + strconv.Itoa(i)
				if _, err := ctl.Request(spec, arrivals[i]); err != nil {
					panic(err) // a well-formed spec with no validator cannot fail
				}
				i++
			}
			ctl.Process(now)
			if i >= len(arrivals) && ctl.PendingChanges() == 0 {
				break
			}
		}
		res.Curves = append(res.Curves, Fig10bCurve{Rate: rate, Waits: waits, ECDF: stats.NewECDF(waits)})
	}
	return res
}

// fig10bTarget is the /32 every replayed change blackholes.
var fig10bTarget = netip.MustParsePrefix("192.0.2.1/32")

// nopManager accepts every change: Figure 10(b) measures when the
// controller releases a change, not what the hardware does with it.
type nopManager struct{}

func (nopManager) Apply(core.ConfigChange) error { return nil }
func (nopManager) Name() string                  { return "nop" }

// Format renders the CDFs at the paper's thresholds.
func (r Fig10bResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 10(b): required queueing for different announcement frequencies (waiting-time CDF)\n")
	header := []string{"rate limit", "P(wait<=0.1s)", "P(wait<=1s)", "P(wait<=10s)", "P(wait<=100s)", "p95 [s]", "changes"}
	var rows [][]string
	for _, c := range r.Curves {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f/s", c.Rate),
			fmt.Sprintf("%.3f", c.ECDF.P(0.1)),
			fmt.Sprintf("%.3f", c.ECDF.P(1)),
			fmt.Sprintf("%.3f", c.ECDF.P(10)),
			fmt.Sprintf("%.3f", c.ECDF.P(100)),
			fmt.Sprintf("%.1f", stats.Percentile(c.Waits, 95)),
			fmt.Sprintf("%d", len(c.Waits)),
		})
	}
	b.WriteString(FormatTable(header, rows))
	b.WriteString("\npaper: ~70% of configuration changes below 1 s; 95th percentile below 100 s\n")
	return b.String()
}
