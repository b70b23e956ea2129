package metrics

import (
	"testing"
	"testing/quick"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
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

// compute measures a raw assignment the way every caller does: validated
// by partition.NewAssignment, then measured by FromAssignment.
func compute(g *graph.Graph, assign []partition.PID, numParts int) (*Result, error) {
	a, err := partition.NewAssignment(g, "", assign, numParts)
	if err != nil {
		return nil, err
	}
	return FromAssignment(a)
}

// computeFor measures strategy s's assignment of g.
func computeFor(g *graph.Graph, s partition.Strategy, numParts int) (*Result, error) {
	a, err := partition.Assign(g, s, numParts)
	if err != nil {
		return nil, err
	}
	return FromAssignment(a)
}

func TestComputeHandWorkedExample(t *testing.T) {
	// Edges: (0,1)->p0, (1,2)->p0, (2,3)->p1, (3,0)->p1.
	// Partition 0 holds vertices {0,1,2}; partition 1 holds {2,3,0}.
	// Vertex replicas: 0->2, 1->1, 2->2, 3->1.
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
	assign := []partition.PID{0, 0, 1, 1}
	m, err := compute(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NonCut != 2 {
		t.Errorf("NonCut = %d, want 2", m.NonCut)
	}
	if m.Cut != 2 {
		t.Errorf("Cut = %d, want 2", m.Cut)
	}
	if m.CommCost != 4 {
		t.Errorf("CommCost = %d, want 4", m.CommCost)
	}
	if m.Balance != 1.0 {
		t.Errorf("Balance = %g, want 1.0", m.Balance)
	}
	if m.PartStDev != 0 {
		t.Errorf("PartStDev = %g, want 0", m.PartStDev)
	}
	if m.MaxEdges != 2 || m.MaxVertices != 3 {
		t.Errorf("MaxEdges=%d MaxVertices=%d", m.MaxEdges, m.MaxVertices)
	}
	if m.ReplicationFactor != 6.0/4 {
		t.Errorf("ReplicationFactor = %g, want 1.5", m.ReplicationFactor)
	}
}

func TestComputeImbalanced(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 4, Dst: 5}})
	assign := []partition.PID{0, 0, 0, 1}
	m, err := compute(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Balance != 1.5 { // max 3 / mean 2
		t.Errorf("Balance = %g, want 1.5", m.Balance)
	}
	if m.Cut != 0 || m.NonCut != 6 {
		t.Errorf("Cut=%d NonCut=%d", m.Cut, m.NonCut)
	}
}

func TestComputeErrors(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := compute(g, []partition.PID{0}, 0); err == nil {
		t.Error("numParts=0 should error")
	}
	if _, err := compute(g, []partition.PID{}, 2); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := compute(g, []partition.PID{5}, 2); err == nil {
		t.Error("out-of-range PID should error")
	}
}

// TestMetricIdentities checks the invariants stated in §3.1 of the paper:
// NonCut + Cut = |V|; Σ edgesPerPart = |E|; CommCost + NonCut = total
// vertex replicas; Balance >= 1; every metric non-negative.
func TestMetricIdentities(t *testing.T) {
	strategies := partition.Extended()
	check := func(seed uint64, partsRaw uint8) bool {
		numParts := 1 + int(partsRaw)%32
		g := randomGraph(seed, 60, 300)
		for _, s := range strategies {
			m, err := computeFor(g, s, numParts)
			if err != nil {
				return false
			}
			if m.NonCut+m.Cut != int64(g.NumVertices()) {
				return false
			}
			var edgeSum int64
			for _, c := range m.EdgesPerPart {
				edgeSum += c
			}
			if edgeSum != int64(g.NumEdges()) {
				return false
			}
			var replicaSum int64
			for _, c := range m.VerticesPerPart {
				replicaSum += c
			}
			if m.CommCost+m.NonCut != replicaSum {
				return false
			}
			if m.Balance < 1.0-1e-9 {
				return false
			}
			if m.CommCost < 2*m.Cut {
				// every cut vertex has at least two copies
				return false
			}
			if m.PartStDev < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePartitionDegenerate(t *testing.T) {
	g := randomGraph(3, 30, 100)
	m, err := computeFor(g, partition.RandomVertexCut(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cut != 0 {
		t.Errorf("Cut = %d with one partition", m.Cut)
	}
	if m.CommCost != 0 {
		t.Errorf("CommCost = %d with one partition", m.CommCost)
	}
	if m.Balance != 1 {
		t.Errorf("Balance = %g with one partition", m.Balance)
	}
}

func TestMetricByName(t *testing.T) {
	g := randomGraph(4, 20, 60)
	m, err := computeFor(g, partition.EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MetricNames() {
		if _, err := m.MetricByName(name); err != nil {
			t.Errorf("MetricByName(%q): %v", name, err)
		}
	}
	if v, err := m.MetricByName("CommCost"); err != nil || v != float64(m.CommCost) {
		t.Errorf("CommCost lookup = %g, %v", v, err)
	}
	if _, err := m.MetricByName("Bogus"); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestEmptyGraphMetrics(t *testing.T) {
	g := graph.FromEdges(nil)
	m, err := compute(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Balance != 1 || m.Cut != 0 || m.NonCut != 0 || m.CommCost != 0 {
		t.Errorf("empty graph metrics: %+v", m)
	}
}

func Test2DCommCostUsuallyLowerThanRVC(t *testing.T) {
	// The core rationale for 2D: bounded replication should beat random
	// vertex cut on communication cost for dense-enough graphs.
	g := randomGraph(1234, 100, 8000)
	rvc, err := computeFor(g, partition.RandomVertexCut(), 64)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := computeFor(g, partition.EdgePartition2D(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if d2.CommCost >= rvc.CommCost {
		t.Fatalf("2D CommCost %d not below RVC %d", d2.CommCost, rvc.CommCost)
	}
}
