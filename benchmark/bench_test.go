package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy size for a second, untraced and
// traced, with the oracle on, and holds what it prints against
// BENCHMARK.json: the same metric names and units, no more and no less.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	check := func(t *testing.T, rep *report, want []metricSpec) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, m := range want {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
			}
			got, ok := rep.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s is in BENCHMARK.json but was not reported", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s = %v", m.Name, got.Value)
			}
		}
		if len(rep.Metrics) != len(want) {
			for name := range rep.Metrics {
				found := false
				for _, m := range want {
					found = found || m.Name == name
				}
				if !found {
					t.Errorf("metric %s was reported but is not in BENCHMARK.json", name)
				}
			}
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the program", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			rep, err := endToEnd(w, 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, rep.Metrics[m.Name].Value)
				}
			}
			traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
			rep, err = perLayer(w, 1, 1, true, traceFile)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, spec.PerLayer)
			b, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &first); err != nil || first.Layer == "" || first.End < first.Start {
				t.Errorf("first span of the trace file: %+v, %v", first, err)
			}
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompare checks the three verdicts of -compare on made-up runs.
func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	runs := func(scale map[string]float64, jitter float64) []*report {
		var out []*report
		for i := 0; i < 10; i++ {
			r := &report{Workload: workloads[0].name, Seed: uint64(i), Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				f := 1.0
				if s, ok := scale[m.Name]; ok {
					f = s
				}
				r.set(m.Name, 100*f*(1+jitter*float64(i-5)), m.Unit)
			}
			out = append(out, r)
		}
		return out
	}
	write := func(name string, reports []*report) string {
		path := filepath.Join(t.TempDir(), name)
		b, _ := json.Marshal(reports)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", runs(nil, 0.001))
	for _, tc := range []struct {
		name    string
		b       []*report
		verdict string
		worse   bool
	}{
		{"same", runs(nil, 0.001), "ok", false},
		{"slower", runs(map[string]float64{"ops_per_s": 0.5}, 0.001), "worse", true},
		{"noisy", runs(nil, 0.2), "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write("b.json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, want %v and a %q verdict in:\n%s", tc.name, worse, tc.worse, tc.verdict, out.String())
		}
	}
}
