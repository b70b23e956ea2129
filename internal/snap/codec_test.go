package snap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// testGraph returns a small fixed graph exercising duplicates, self loops
// and a non-trivial vertex set.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 0}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 4}, {Src: 2, Dst: 5}, {Src: 5, Dst: 5}, {Src: 0, Dst: 1},
		{Src: 6, Dst: 0}, {Src: 7, Dst: 6}, {Src: 6, Dst: 7}, {Src: 3, Dst: 7},
	}
	return graph.FromEdges(edges)
}

func testAssignment(t testing.TB, g *graph.Graph, s partition.Strategy, parts int) *partition.Assignment {
	t.Helper()
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGraphRoundTrip(t *testing.T) {
	g := testGraph(t)
	data := EncodeGraph(g)
	back, err := DecodeGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Fatal("edges differ after round trip")
	}
	if !reflect.DeepEqual(back.Vertices(), g.Vertices()) {
		t.Fatal("vertices differ after round trip")
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint differs after round trip")
	}
	// Canonical encoding: re-encoding the decoded graph reproduces the bytes.
	if !bytes.Equal(EncodeGraph(back), data) {
		t.Fatal("re-encoding the decoded graph changed the bytes")
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	g := testGraph(t)
	for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.Greedy(), partition.Hybrid(2)} {
		a := testAssignment(t, g, s, 4)
		back, err := DecodeAssignment(EncodeAssignment(a), g, "")
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(back.PIDs, a.PIDs) {
			t.Fatalf("%s: PIDs differ after round trip", s.Name())
		}
		if !reflect.DeepEqual(back.EdgesPerPart, a.EdgesPerPart) {
			t.Fatalf("%s: histogram differs after round trip", s.Name())
		}
		if back.Strategy != a.Strategy || back.StrategyKey() != a.StrategyKey() {
			t.Fatalf("%s: identity differs: %q/%q vs %q/%q", s.Name(), back.Strategy, back.StrategyKey(), a.Strategy, a.StrategyKey())
		}
	}
}

func TestAssignmentRejectsWrongGraph(t *testing.T) {
	g := testGraph(t)
	a := testAssignment(t, g, partition.EdgePartition2D(), 4)
	data := EncodeAssignment(a)
	other := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	if _, err := DecodeAssignment(data, other, ""); err == nil {
		t.Fatal("decoding against a different graph must fail")
	}
	// Same edge count, different content.
	edges := append([]graph.Edge(nil), g.Edges()...)
	edges[3] = graph.Edge{Src: 7, Dst: 7}
	if _, err := DecodeAssignment(data, graph.FromEdges(edges), ""); err == nil {
		t.Fatal("decoding against same-size different-content graph must fail")
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	g := testGraph(t)
	a := testAssignment(t, g, partition.EdgePartition2D(), 4)
	m, err := metrics.FromAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMetrics(EncodeMetrics(m, g, "2D"), g, "2D")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("metrics differ after round trip:\n got %+v\nwant %+v", back, m)
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	g := testGraph(t)
	for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.Greedy()} {
		a := testAssignment(t, g, s, 4)
		pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeTopology(EncodeTopology(pg, s.Name()), g, s.Name(), pregel.BuildOptions{ReuseBuffers: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if back.NumParts != pg.NumParts {
			t.Fatalf("%s: NumParts %d != %d", s.Name(), back.NumParts, pg.NumParts)
		}
		if !reflect.DeepEqual(back.RawTables(), pg.RawTables()) {
			t.Fatalf("%s: raw tables differ after round trip", s.Name())
		}
		if d := metricsDiffStr(back.Metrics(), pg.Metrics()); d != "" {
			t.Fatalf("%s: topology metrics differ after round trip: %s", s.Name(), d)
		}
		if !back.ReuseBuffers {
			t.Fatalf("%s: restore must apply the restoring side's build options", s.Name())
		}
	}
}

// TestDecodeTopologyRejectsMovedEdge: a CRC-valid topology whose per-edge
// assignment moves one edge to another partition than its edge tables hold
// it in must fail: each partition's span is held to the PID recount.
func TestDecodeTopologyRejectsMovedEdge(t *testing.T) {
	g := testGraph(t)
	pg, err := pregel.NewPartitionedGraphFromAssignment(testAssignment(t, g, partition.EdgePartition2D(), 4), pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(EncodeTopology(pg, "2D"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(KindTopology)
	for id := uint32(secMeta); id <= secLocalVerts; id++ {
		p, _ := c.Section(id)
		if id == secTopoAssign {
			p = append([]byte(nil), p...)
			p[0] = (p[0] + 1) % 4 // one-byte PIDs at four partitions
		}
		b.Section(id, p)
	}
	if _, err := DecodeTopology(b.Bytes(), g, "2D", pregel.BuildOptions{}); err == nil || !strings.Contains(err.Error(), "assignment counts") {
		t.Fatalf("a topology with an edge moved between partitions decoded: %v", err)
	}
}

func metricsDiffStr(a, b *metrics.Result) string {
	if !reflect.DeepEqual(a, b) {
		return "metric sets differ"
	}
	return ""
}

// TestDecodeRejectsRelabeledArtifacts: every artifact records its strategy
// cache identity, and decoding for a different tuple must fail — a CRC-valid
// container relabeled in a store bundle or under another disk-tier file
// name can never be served for the wrong strategy.
func TestDecodeRejectsRelabeledArtifacts(t *testing.T) {
	g := testGraph(t)
	a := testAssignment(t, g, partition.EdgePartition2D(), 4)
	if _, err := DecodeAssignment(EncodeAssignment(a), g, "Greedy"); err == nil {
		t.Fatal("2D assignment decoded for the Greedy key")
	}
	m, err := metrics.FromAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMetrics(EncodeMetrics(m, g, "2D"), g, "SC"); err == nil {
		t.Fatal("2D metrics decoded for the SC key")
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTopology(EncodeTopology(pg, "2D"), g, "Hybrid:8", pregel.BuildOptions{}); err == nil {
		t.Fatal("2D topology decoded for the Hybrid:8 key")
	}
}

func TestDecodeRejectsKindMismatch(t *testing.T) {
	g := testGraph(t)
	a := testAssignment(t, g, partition.EdgePartition2D(), 4)
	if _, err := DecodeGraph(EncodeAssignment(a)); err == nil {
		t.Fatal("DecodeGraph must reject an assignment container")
	}
	if _, err := DecodeAssignment(EncodeGraph(g), g, ""); err == nil {
		t.Fatal("DecodeAssignment must reject a graph container")
	}
	if _, err := DecodeMetrics(EncodeGraph(g), g, ""); err == nil {
		t.Fatal("DecodeMetrics must reject a graph container")
	}
	if _, err := DecodeTopology(EncodeGraph(g), g, "", pregel.BuildOptions{}); err == nil {
		t.Fatal("DecodeTopology must reject a graph container")
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	g := testGraph(t)
	data := EncodeGraph(g)
	// Every single-byte flip must be rejected: all bytes are CRC-covered.
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xFF
		if _, err := DecodeGraph(mutated); err == nil {
			t.Fatalf("flip at byte %d of %d decoded successfully", i, len(data))
		}
	}
	// Every truncation must be rejected.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeGraph(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
	}
	// Trailing garbage must be rejected.
	if _, err := DecodeGraph(append(append([]byte(nil), data...), 0x00)); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}
}

func TestStoreBundleRoundTrip(t *testing.T) {
	g := testGraph(t)
	a := testAssignment(t, g, partition.EdgePartition2D(), 4)
	graphs := []StoreGraph{{Labels: []string{"g1", "g2"}, Data: EncodeGraph(g)}}
	arts := []StoreArtifact{{GraphIndex: 0, Stage: StageAssignment, StrategyKey: "2D", NumParts: 4, Data: EncodeAssignment(a)}}
	sg, sa, err := DecodeStore(EncodeStore(graphs, arts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sg, graphs) || !reflect.DeepEqual(sa, arts) {
		t.Fatal("store bundle differs after round trip")
	}
	// A bundle referencing a graph index out of range must be rejected.
	bad := []StoreArtifact{{GraphIndex: 1, Stage: StageAssignment, StrategyKey: "2D", NumParts: 4, Data: EncodeAssignment(a)}}
	if _, _, err := DecodeStore(EncodeStore(graphs, bad)); err == nil {
		t.Fatal("out-of-range graph index decoded successfully")
	}
}

// shrunkGraph tombstones two edges of the test graph via Shrink, giving the
// optional tombstone section something to carry.
func shrunkGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.FromEdges(append([]graph.Edge(nil), testGraph(t).Edges()...))
	ng, d, err := g.Shrink([]graph.Edge{g.Edges()[3], g.Edges()[9]})
	if err != nil {
		t.Fatal(err)
	}
	if d.Compacted || ng.NumDeadEdges() != 2 {
		t.Fatalf("want 2 tombstones without compaction, got %d (compacted=%v)", ng.NumDeadEdges(), d.Compacted)
	}
	return ng
}

// TestShrunkRoundTrip: a generation carrying tombstones round-trips through
// every artifact kind with zero recomputation — the restored graph keeps
// its tombstone set, and the dependent assignment, metrics and topology
// artifacts decode against the restored graph with their recorded numbers
// intact.
func TestShrunkRoundTrip(t *testing.T) {
	g := shrunkGraph(t)
	back, err := DecodeGraph(EncodeGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Fatal("edges differ after round trip")
	}
	if !reflect.DeepEqual(back.Tombstones(), g.Tombstones()) || back.NumDeadEdges() != g.NumDeadEdges() {
		t.Fatal("tombstone set differs after round trip")
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint differs after round trip")
	}

	for _, s := range []partition.Strategy{partition.EdgePartition2D(), partition.Greedy(), partition.Hybrid(2)} {
		a := testAssignment(t, g, s, 4)
		ba, err := DecodeAssignment(EncodeAssignment(a), back, "")
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(ba.PIDs, a.PIDs) || !reflect.DeepEqual(ba.EdgesPerPart, a.EdgesPerPart) {
			t.Fatalf("%s: assignment differs after round trip", s.Name())
		}

		m, err := metrics.FromAssignment(a)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := DecodeMetrics(EncodeMetrics(m, g, s.Name()), back, s.Name())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(bm, m) {
			t.Fatalf("%s: metrics differ after round trip:\n got %+v\nwant %+v", s.Name(), bm, m)
		}

		pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bpg, err := DecodeTopology(EncodeTopology(pg, s.Name()), back, s.Name(), pregel.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(bpg.RawTables(), pg.RawTables()) {
			t.Fatalf("%s: raw tables differ after round trip", s.Name())
		}
		if !reflect.DeepEqual(bpg.Metrics(), pg.Metrics()) {
			t.Fatalf("%s: topology metrics differ after round trip", s.Name())
		}
	}
}

// TestUnweightedEncodingUnchanged: the byte encoding of fully-live
// artifacts is canonical — a graph encodes exactly like a fresh copy of
// its edges — and a metrics container carries no weight section.
func TestUnweightedEncodingUnchanged(t *testing.T) {
	g := testGraph(t)
	if got, want := EncodeGraph(g), EncodeGraph(graph.FromEdges(append([]graph.Edge(nil), g.Edges()...))); !bytes.Equal(got, want) {
		t.Fatal("plain graph encoding is not canonical")
	}
	a := testAssignment(t, g, partition.EdgePartition2D(), 4)
	m, err := metrics.FromAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeMetrics(m, g, "2D")
	c, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Section(secWeights); ok {
		t.Fatal("metrics container carries a weight section")
	}
}
