package partition

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

func randomGraph(seed uint64, maxV, maxE int) *graph.Graph {
	r := rng.New(seed)
	nv := 2 + r.Intn(maxV)
	ne := 1 + r.Intn(maxE)
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(r.Intn(nv)),
			Dst: graph.VertexID(r.Intn(nv)),
		}
	}
	return graph.FromEdges(edges)
}

func TestAllStrategiesInRangeAndDeterministic(t *testing.T) {
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%64
		g := randomGraph(seed, 64, 256)
		for _, s := range Extended() {
			a, err := s.Partition(g, numParts)
			if err != nil {
				return false
			}
			b, err := s.Partition(g, numParts)
			if err != nil {
				return false
			}
			if len(a) != g.NumEdges() {
				return false
			}
			for i := range a {
				if a[i] < 0 || int(a[i]) >= numParts || a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRejectsBadCounts(t *testing.T) {
	g := randomGraph(1, 10, 10)
	for _, s := range Extended() {
		if _, err := s.Partition(g, 0); err == nil {
			t.Errorf("%s: numParts=0 should error", s.Name())
		}
		if _, err := s.Partition(g, -3); err == nil {
			t.Errorf("%s: negative numParts should error", s.Name())
		}
		if _, err := s.Partition(g, 1<<21); err == nil {
			t.Errorf("%s: huge numParts should error", s.Name())
		}
	}
}

func Test1DCollocatesSameSource(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 7, Dst: 1}, {Src: 7, Dst: 2}, {Src: 7, Dst: 3}, {Src: 8, Dst: 1},
	})
	a, err := EdgePartition1D().Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != a[1] || a[1] != a[2] {
		t.Fatalf("1D split edges of the same source: %v", a)
	}
}

func TestSCDCareExactModulo(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 13, Dst: 29}})
	sc, _ := SourceCut().Partition(g, 8)
	dc, _ := DestinationCut().Partition(g, 8)
	if sc[0] != PID(13%8) {
		t.Fatalf("SC = %d, want %d", sc[0], 13%8)
	}
	if dc[0] != PID(29%8) {
		t.Fatalf("DC = %d, want %d", dc[0], 29%8)
	}
}

func TestCRVCCollocatesBothDirections(t *testing.T) {
	check := func(a, b uint16, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%128
		g := graph.FromEdges([]graph.Edge{
			{Src: graph.VertexID(a), Dst: graph.VertexID(b)},
			{Src: graph.VertexID(b), Dst: graph.VertexID(a)},
		})
		p, err := CanonicalRandomVertexCut().Partition(g, numParts)
		return err == nil && p[0] == p[1]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRVCCollocatesSameDirection(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{Src: 3, Dst: 9}, {Src: 3, Dst: 9},
	})
	p, _ := RandomVertexCut().Partition(g, 64)
	if p[0] != p[1] {
		t.Fatal("RVC split identical edges")
	}
}

// replicasOf returns the number of distinct partitions each vertex's edges
// touch.
func replicasOf(g *graph.Graph, assign []PID) map[graph.VertexID]map[PID]bool {
	out := map[graph.VertexID]map[PID]bool{}
	add := func(v graph.VertexID, p PID) {
		if out[v] == nil {
			out[v] = map[PID]bool{}
		}
		out[v][p] = true
	}
	for i, e := range g.Edges() {
		add(e.Src, assign[i])
		add(e.Dst, assign[i])
	}
	return out
}

func Test2DReplicationBound(t *testing.T) {
	// 2D guarantees <= 2*ceil(sqrt(N)) replicas per vertex (paper §3).
	for _, numParts := range []int{4, 9, 16, 17, 64, 100, 128} {
		g := randomGraph(uint64(numParts), 200, 4000)
		assign, err := EdgePartition2D().Partition(g, numParts)
		if err != nil {
			t.Fatal(err)
		}
		side := 1
		for side*side < numParts {
			side++
		}
		bound := 2 * side
		for v, parts := range replicasOf(g, assign) {
			if len(parts) > bound {
				t.Fatalf("numParts=%d: vertex %d has %d replicas, bound %d",
					numParts, v, len(parts), bound)
			}
		}
	}
}

func Test1DReplicationSourceBound(t *testing.T) {
	// Under 1D all out-edges of a vertex are in one partition, so a
	// vertex's replicas are bounded by 1 + (#partitions holding its
	// in-edges); in particular a pure source has exactly 1 replica... per
	// the weaker invariant: every source vertex's out-edges land together.
	g := randomGraph(5, 50, 500)
	assign, _ := EdgePartition1D().Partition(g, 32)
	bySource := map[graph.VertexID]PID{}
	for i, e := range g.Edges() {
		if p, ok := bySource[e.Src]; ok && p != assign[i] {
			t.Fatalf("vertex %d out-edges in partitions %d and %d", e.Src, p, assign[i])
		}
		bySource[e.Src] = assign[i]
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"RVC", "1D", "2D", "CRVC", "SC", "DC", "Greedy", "HDRF"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	for _, name := range []string{"Range", "Hybrid", "Hybrid:250"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		wantName := "Range"
		if name != "Range" {
			wantName = "Hybrid"
		}
		if s.Name() != wantName {
			t.Fatalf("ByName(%q).Name() = %q, want %q", name, s.Name(), wantName)
		}
	}
	for _, bad := range []string{"nope", "Hybrid:", "Hybrid:0", "Hybrid:abc"} {
		if _, err := ByName(bad); err == nil {
			t.Fatalf("ByName(%q) should error", bad)
		}
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"RVC", "1D", "2D", "CRVC", "SC", "DC"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() holds %d strategies, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i].Name() != want[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, all[i].Name(), want[i])
		}
	}
}

func TestHashStrategyRejectsOutOfRangePID(t *testing.T) {
	s := NewHashStrategy("bad", func(src, dst graph.VertexID, n int) PID {
		return PID(n) // always out of range
	})
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := s.Partition(g, 4); err == nil {
		t.Fatal("out-of-range PID should error")
	}
}

// TestAssignReturnsHashPanic: a hash that panics on one edge of a graph big
// enough for the sharded path, with at least two procs to shard over, fails
// the Assign call with an error instead of killing the process from a
// worker goroutine.
func TestAssignReturnsHashPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	edges := make([]graph.Edge, 2*parallelAssignThreshold)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	poison := graph.VertexID(len(edges) - 3)
	s := NewHashStrategy("panicky", func(src, dst graph.VertexID, n int) PID {
		if src == poison {
			panic("boom")
		}
		return PID(int(src) % n)
	})
	_, err := Assign(graph.FromEdges(edges), s, 4)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err %v, want the hash's panic", err)
	}
}

func TestSingletonPartition(t *testing.T) {
	g := randomGraph(9, 20, 50)
	for _, s := range Extended() {
		assign, err := s.Partition(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, p := range assign {
			if p != 0 {
				t.Fatalf("%s: partition %d with numParts=1", s.Name(), p)
			}
		}
	}
}
