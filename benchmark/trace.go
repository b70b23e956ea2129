package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// trace id; parent is the span id of the caller (0 for a root).
type span struct {
	TraceID int    `json:"trace_id"`
	SpanID  int    `json:"span_id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// counterSample is a counter read at a span boundary, so ratios are
// measured where the work happens.
type counterSample struct {
	TraceID int     `json:"trace_id"`
	AtNs    int64   `json:"at_ns"`
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
}

// recorder keeps spans in memory and writes them when the pass ends. It is
// used from one goroutine at a time per trace id; the daemon workloads give
// each client its own recorder and merge.
type recorder struct {
	t0       time.Time
	spans    []span
	counters []counterSample
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id.
func (r *recorder) begin(traceID, parent int, layer, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{TraceID: traceID, SpanID: id, Parent: parent, Layer: layer, Name: name, StartNs: r.now()})
	return id
}

// end closes span id and returns its duration in milliseconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.EndNs = r.now()
	return float64(s.durNs()) / 1e6
}

// do runs fn inside a span and returns the span's duration in milliseconds.
// A nil recorder just times fn: the untraced form of the same operation.
func (r *recorder) do(traceID, parent int, layer, name string, fn func() error) (float64, error) {
	if r == nil {
		t := time.Now()
		err := fn()
		return msSince(t), err
	}
	id := r.begin(traceID, parent, layer, name)
	err := fn()
	return r.end(id), err
}

func (r *recorder) count(traceID int, name string, v float64) {
	r.counters = append(r.counters, counterSample{TraceID: traceID, AtNs: r.now(), Name: name, Value: v})
}

// merge appends another recorder's spans, renumbering them past r's own
// and shifting its clock onto r's.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	shift := int64(o.t0.Sub(r.t0))
	for _, s := range o.spans {
		s.SpanID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.StartNs += shift
		s.EndNs += shift
		r.spans = append(r.spans, s)
	}
	for _, c := range o.counters {
		c.AtNs += shift
		r.counters = append(r.counters, c)
	}
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered, reach int64
		reach = s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.SpanID] = s.durNs() - covered
	}
	return self
}

// layerSelfMs sums self time by layer, in milliseconds.
func layerSelfMs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.SpanID]) / 1e6
	}
	return out
}

// traceFile is the document written per traced pass.
type traceFile struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Spans    []span          `json:"spans"`
	Counters []counterSample `json:"counters"`
	// LayerSelfMs is self time summed by layer over the whole pass: the
	// quickest answer to "where did the traced pass spend its time".
	LayerSelfMs map[string]float64 `json:"layer_self_ms"`
}

func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Spans: r.spans, Counters: r.counters,
		LayerSelfMs: layerSelfMs(r.spans),
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
