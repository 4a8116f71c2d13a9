package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one signal
// cycle, UPDATE or tick share a trace id; parent names the span that
// caused this one (0: a root).
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing, so the untraced run pays one nil check per
// boundary.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	nextID uint64
}

func newRecorder() *recorder {
	return &recorder{counts: make(map[string]float64)}
}

// epoch is the time base of every stamp the benchmark takes.
var epoch = time.Now()

// nowNs is the monotonic time since epoch in ns.
func nowNs() int64 { return int64(time.Since(epoch)) }

// add records one span and returns its id, for children to name as
// their parent.
func (r *recorder) add(trace, parent uint64, layer, name string, start, end int64) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.spans = append(r.spans, span{Trace: trace, Span: id, Parent: parent, Layer: layer, Name: name,
		Start: start, End: end})
	r.mu.Unlock()
	return id
}

// count accumulates a named counter taken at the same boundaries as the
// spans (messages, flows, records).
func (r *recorder) count(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
}

func (r *recorder) counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// durations returns the length in ns of every span called layer.name.
func (r *recorder) durations(layer, name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Layer == layer && s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
