package experiments

import (
	"fmt"
	"strings"

	"stellar/internal/hw"
	"stellar/internal/stats"
)

// fig10aConfig parameterizes the control-plane CPU study.
type fig10aConfig struct {
	Seed uint64
	// Rates are the rule-update rates swept (1..5 per second).
	Rates []float64
	// SamplesPerRate is the number of 5-second measurement intervals
	// per rate.
	SamplesPerRate int
	// NoiseStd is the CPU measurement noise in percentage points.
	NoiseStd float64
}

// newFig10aConfig mirrors the paper's sweep.
func newFig10aConfig(o Options) fig10aConfig {
	return fig10aConfig{Seed: o.seed(21), Rates: []float64{1, 2, 3, 4, 5}, SamplesPerRate: 40, NoiseStd: 0.6}
}

// fig10aResult is the regression of Figure 10(a).
type fig10aResult struct {
	Cfg fig10aConfig
	// Samples are the (rate, cpu%) measurements.
	RateSamples []float64
	CPUSamples  []float64
	// Fit is the linear model; SlopeCI95 its 95% confidence half-width.
	Fit       stats.Linear
	SlopeCI95 float64
	// MaxRateAtCap is the update rate at the 15% CPU cap per the fitted
	// model — the paper's median of 4.33 updates/s.
	MaxRateAtCap float64
}

// fig10a reproduces Figure 10(a): sampled control-plane CPU usage as a
// function of the blackholing-rule update rate, the linear regression
// with its 95% confidence interval, and the sustainable median update
// rate at the router's hard 15% CPU limit.
func fig10a(cfg fig10aConfig) (fig10aResult, error) {
	limits := hw.DefaultEdgeRouterLimits(350, hw.RTBHUnitN)
	model := hw.NewCPUModel(limits, cfg.NoiseStd)
	rng := stats.NewRand(cfg.Seed)

	res := fig10aResult{Cfg: cfg}
	for _, rate := range cfg.Rates {
		for i := 0; i < cfg.SamplesPerRate; i++ {
			res.RateSamples = append(res.RateSamples, rate)
			res.CPUSamples = append(res.CPUSamples, model.Sample(rate, rng))
		}
	}
	fit, err := stats.LinearFit(res.RateSamples, res.CPUSamples)
	if err != nil {
		return res, err
	}
	res.Fit = fit
	res.SlopeCI95 = fit.SlopeCI(0.95)
	res.MaxRateAtCap = fit.SolveFor(limits.CPULimitPct)
	return res, nil
}

// Format renders the regression summary.
func (r fig10aResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 10(a): control plane CPU usage vs. L3 criteria update rate (linear regression, 95% CI)\n")
	header := []string{"rate [1/s]", "mean CPU [%]"}
	var rows [][]string
	for _, rate := range r.Cfg.Rates {
		var sum float64
		n := 0
		for i, x := range r.RateSamples {
			if x == rate {
				sum += r.CPUSamples[i]
				n++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", rate), fmt.Sprintf("%5.2f", sum/float64(n)),
		})
	}
	b.WriteString(formatTable(header, rows))
	fmt.Fprintf(&b, "\nfit: cpu%% = %.3f * rate + %.3f (R² %.3f, slope 95%% CI ± %.3f)\n",
		r.Fit.Slope, r.Fit.Intercept, r.Fit.R2, r.SlopeCI95)
	fmt.Fprintf(&b, "median feasible update rate at the 15%% CPU cap: %.2f updates/s (paper: 4.33)\n",
		r.MaxRateAtCap)
	return b.String()
}
