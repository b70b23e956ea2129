package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{TraceID: 1, SpanID: 1, Parent: 0, Layer: "cutfit", StartNs: 0, EndNs: 100},
		// Two disjoint children and one overlapping the second.
		{TraceID: 1, SpanID: 2, Parent: 1, Layer: "graph", StartNs: 10, EndNs: 30},
		{TraceID: 1, SpanID: 3, Parent: 1, Layer: "pregel", StartNs: 40, EndNs: 70},
		{TraceID: 1, SpanID: 4, Parent: 1, Layer: "pregel", StartNs: 60, EndNs: 80},
		// A grandchild only reduces its own parent's self time.
		{TraceID: 1, SpanID: 5, Parent: 3, Layer: "algorithms", StartNs: 45, EndNs: 55},
		// A child that outlives its parent is counted up to the parent's end.
		{TraceID: 1, SpanID: 6, Parent: 1, Layer: "store", StartNs: 95, EndNs: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (20 + 30 + 10 + 5), // [10,30] [40,70] [70,80] [95,100]
		2: 20,
		3: 30 - 10,
		4: 20,
		5: 10,
		6: 25,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelfMs(spans)
	if got, want := byLayer["pregel"], float64(20+20)/1e6; got != want {
		t.Errorf("pregel self = %g ms, want %g", got, want)
	}
}

func TestRecorderNestsMergesAndWrites(t *testing.T) {
	r := newRecorder()
	root := r.begin(1, 0, "cutfit", "op")
	if _, err := r.do(1, root, "graph", "ReadEdgeList", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.count(1, "store.misses", 3)
	r.end(root)

	o := newRecorder()
	oroot := o.begin(2, 0, "cutfitd", "round")
	o.end(o.begin(2, oroot, "cutfitd", "POST /v1/run"))
	o.end(oroot)
	r.merge(o)

	if len(r.spans) != 4 {
		t.Fatalf("merged recorder holds %d spans, want 4", len(r.spans))
	}
	ids := make(map[int]bool)
	for _, s := range r.spans {
		if ids[s.SpanID] {
			t.Errorf("span id %d used twice after merge", s.SpanID)
		}
		ids[s.SpanID] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.SpanID)
		}
	}
	if child := r.spans[3]; child.Parent != r.spans[2].SpanID {
		t.Errorf("merged child points at parent %d, want %d", child.Parent, r.spans[2].SpanID)
	}

	path, err := r.write(t.TempDir(), "unit", 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "unit" || tf.Seed != 7 || len(tf.Spans) != 4 || len(tf.Counters) != 1 {
		t.Errorf("trace file round trip lost data: %+v", tf)
	}
}
