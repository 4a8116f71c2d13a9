package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// instance is one set-up of a workload: the exchange, its standing
// state and whatever drives it.
type instance interface {
	// warm runs the untimed lead-in of about d. It returns a fingerprint
	// that has to be the same in every set-up of one run, "" when the
	// workload makes no such claim.
	warm(round int, d time.Duration) (string, error)
	// run measures one segment of about d.
	run(d time.Duration) (segment, error)
	// setRecorder switches span recording on (non-nil) or off.
	setRecorder(*recorder)
	// wireChain and engineProfile record the spans of the other
	// workload family on this instance's exchange, for the per-layer
	// metrics the workload's own calls never produce.
	wireChain(rec *recorder, d time.Duration) error
	engineProfile(rec *recorder) error
	// layers hands the isolated layer probes this workload's inputs.
	layers() (layerInputs, error)
	// finish is the end-of-run oracle.
	finish() error
	close()
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// op and latency say what this workload's ops_per_s and latency_ms
	// count; loop states the load model.
	op, latency, loop string
	setup             func(seed uint64, toy, traceable bool) (instance, error)
}

// segment is one timed slice of a workload.
type segment struct {
	ops       float64
	wall      time.Duration
	latencies []float64 // ns
	attempted int
	failed    int
	// generatorNs is the time spent in the benchmark's own code on the
	// measured path: writing UPDATEs, checking reports, bookkeeping.
	generatorNs float64
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes are the human-readable lines printed above the result:
	// sample counts, which tail percentile a short run could support.
	Notes []string `json:"notes,omitempty"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setups is how often the end-to-end run sets the workload up afresh:
// setup_s is the median of that many set-ups, and each set-up measures
// a third of the run.
const setups = 3

// Extra set-ups, timed only, stop at maxSetups samples or setupBudget
// seconds, whichever comes first.
const (
	maxSetups   = 15
	setupBudget = 1.0
)

// warmShare sets the untimed lead-in of a wire workload to this share of
// the time the set-up then measures; the data-plane workloads warm up
// with their determinism prefix run instead.
const warmShare = 5

// heapLive forces a collection and returns the live heap in bytes.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// phase runs segments until d is spent and pools them.
type phaseResult struct {
	opsPerSec   []float64 // one per segment
	p50s        []float64 // ns, one per segment
	latencies   []float64 // ns
	ops         float64
	wall        time.Duration
	allocated   float64 // bytes
	attempted   int
	failed      int
	generatorNs float64
}

func (p *phaseResult) add(q phaseResult) {
	p.opsPerSec = append(p.opsPerSec, q.opsPerSec...)
	p.p50s = append(p.p50s, q.p50s...)
	p.latencies = append(p.latencies, q.latencies...)
	p.ops += q.ops
	p.wall += q.wall
	p.allocated += q.allocated
	p.attempted += q.attempted
	p.failed += q.failed
	p.generatorNs += q.generatorNs
}

// segmentLen is the length of one timed segment of a wire workload;
// throughput is the median over segments, so one disturbed segment
// does not move it.
const segmentLen = time.Second

func runPhase(inst instance, d time.Duration) (phaseResult, error) {
	var p phaseResult
	a0 := totalAlloc()
	start := time.Now()
	for {
		left := d - time.Since(start)
		if left <= 0 && len(p.opsPerSec) > 0 {
			break
		}
		sg, err := inst.run(min(max(left, segmentLen/4), segmentLen))
		p.attempted += sg.attempted
		p.failed += sg.failed
		if err != nil {
			return p, err
		}
		p.ops += sg.ops
		p.wall += sg.wall
		p.generatorNs += sg.generatorNs
		p.opsPerSec = append(p.opsPerSec, sg.ops/sg.wall.Seconds())
		p.p50s = append(p.p50s, median(sg.latencies))
		p.latencies = append(p.latencies, sg.latencies...)
	}
	p.allocated = totalAlloc() - a0
	return p, nil
}

// endToEnd is the untraced run: three fresh set-ups, each warmed up and
// measured for a third of the run. Every end-to-end metric comes from
// here.
func endToEnd(w *workload, seed uint64, seconds float64, toy bool) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Metrics: make(map[string]metricValue)}
	var (
		all       phaseResult
		setupSecs []float64
		prints    []string
		problems  []error
		heap      float64
	)
	per := time.Duration(seconds / setups * float64(time.Second))
	for round := 0; round < setups; round++ {
		t0 := time.Now()
		inst, err := w.setup(seed, toy, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		print, err := inst.warm(round, per/warmShare)
		if err == nil {
			prints = append(prints, print)
			var p phaseResult
			p, err = runPhase(inst, per)
			all.add(p)
		}
		if err != nil {
			problems = append(problems, err)
		}
		if round == setups-1 {
			heap = heapLive()
		}
		if err := inst.finish(); err != nil {
			problems = append(problems, err)
		}
		inst.close()
		if len(problems) > 0 {
			break
		}
	}
	// A cheap set-up is timed again until the samples are worth a second,
	// so setup_s is not the median of three few-millisecond readings.
	for len(problems) == 0 && len(setupSecs) < maxSetups && sum(setupSecs) < setupBudget {
		t0 := time.Now()
		inst, err := w.setup(seed, toy, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		inst.close()
	}
	for _, p := range prints[min(1, len(prints)):] {
		if p != prints[0] {
			problems = append(problems, fmt.Errorf("run at depth 1 and runs at the default depth differ: fingerprints %v", prints))
			break
		}
	}
	rep.Attempted, rep.Failed = max(all.attempted, 1), all.failed
	if len(problems) > 0 && rep.Failed == 0 {
		rep.Failed = 1
	}
	rep.Correct = len(problems) == 0
	if len(all.latencies) == 0 || all.ops == 0 {
		return rep, errors.Join(append(problems, fmt.Errorf("%s: nothing completed", w.name))...)
	}
	lat := sortedCopy(all.latencies)
	rep.set("setup_s", median(setupSecs), "s")
	rep.set("ops_per_s", median(all.opsPerSec), "1/s")
	rep.set("latency_ms_p50", quantile(lat, 0.5)/1e6, "ms")
	rep.set("alloc_kb_per_op", all.allocated/all.ops/1e3, "KB")
	rep.set("heap_live_mb", heap/1e6, "MB")
	rep.notef("op = %s; latency = %s", w.op, w.latency)
	rep.notef("load: %s", w.loop)
	rep.notef("per segment: ops/s %.4g; p50 ms %.4g", all.opsPerSec, scale(all.p50s, 1e-6))
	rep.notef("%d set-ups, %d timed segments, %.0f ops in %.2f s measured, %d latency samples",
		len(setupSecs), len(all.opsPerSec), all.ops, all.wall.Seconds(), len(lat))
	return rep, errors.Join(problems...)
}
