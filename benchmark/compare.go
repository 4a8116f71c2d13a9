package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec mirrors BENCHMARK.json at the root of the repository.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent, so it is found from the root and from benchmark/ alike.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := quantile(s, 0.5)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// series groups the reports' values by workload and metric, keeping the
// end-to-end runs apart from the traced ones.
func series(reports []*report, traced bool) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range reports {
		if r.Trace != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSpread prints, for repeated runs, each metric's median, quartiles
// and spread per workload.
func printSpread(w io.Writer, reports []*report) {
	for _, traced := range []bool{false, true} {
		byWorkload := series(reports, traced)
		for _, wl := range workloads {
			metrics := byWorkload[wl.name]
			if len(metrics) == 0 {
				continue
			}
			names := sortedKeys(metrics)
			fmt.Fprintf(w, "# %s: spread over %d runs (trace %v)\n", wl.name, len(metrics[names[0]]), traced)
			fmt.Fprintf(w, "%-40s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
			for _, name := range names {
				q1, q2, q3 := quartiles(metrics[name])
				fmt.Fprintf(w, "%-40s %14.6g %14.6g %14.6g %8.4f\n", name, q1, q2, q3, spread(metrics[name]))
			}
		}
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setupFloor is the absolute slack of setup_s: a set-up is only worse
// when it is also this many seconds slower.
const setupFloor = 0.1

// compareFiles prints, per workload and end-to-end metric, both files'
// medians, the relative change and the bound from BENCHMARK.json. A
// metric is "worse" only beyond its bound, and "unresolved" when either
// file's own repeat spread exceeds the bound. It reports whether any
// metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	load := func(path string) (map[string]map[string][]float64, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var reports []*report
		if err := json.Unmarshal(b, &reports); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range reports {
			if !r.Trace && (!r.Correct || r.Failed > 0) {
				fmt.Fprintf(w, "%s: %s seed %d failed %d of %d ops\n", path, r.Workload, r.Seed, r.Failed, r.Attempted)
				worse = true
			}
		}
		return series(reports, false), nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "change", "bound", "spread A", "spread B", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse than A.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case change > m.Bound && !(m.Name == "setup_s" && mb-ma <= setupFloor):
				verdict = "worse"
				worse = true
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-20s %-18s %12.6g %12.6g %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return worse, nil
}
