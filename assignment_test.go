// Tests for the assignment-centric pipeline: the Assignment artifact, the
// equivalence of the two metrics producers (metrics.FromAssignment and
// PartitionedGraph.Metrics, each the other's oracle), and the single-pass
// guarantee of empirical selection.
package cutfit_test

import (
	"fmt"
	"testing"

	"cutfit"
	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// pipelineGraphs returns the three structurally distinct graph families the
// pipeline tests sweep: a uniform random graph, a skewed power-law R-MAT
// graph, and an ID-local road grid.
func pipelineGraphs(t testing.TB) map[string]*cutfit.Graph {
	t.Helper()
	random, err := gen.ErdosRenyi(500, 2500, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 8, 0xB0B))
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Rows: 22, Cols: 23, EdgeProb: 0.6, Seed: 0xCAFE})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*cutfit.Graph{"random": random, "rmat": rmat, "road": road}
}

// pipelineStrategies is every strategy the library ships: the paper's six,
// the streaming extensions, and the hybrid/range extension partitioners.
func pipelineStrategies() []cutfit.Strategy {
	return append(cutfit.ExtendedStrategies(), cutfit.HybridCut(4), cutfit.RangeCut())
}

// metricsDiff compares two metric sets bit-for-bit (floats included — both
// sides must run the identical derivation) and describes the first
// difference, or returns "".
func metricsDiff(a, b *cutfit.Metrics) string {
	switch {
	case a.NumParts != b.NumParts:
		return fmt.Sprintf("NumParts %d != %d", a.NumParts, b.NumParts)
	case a.Balance != b.Balance:
		return fmt.Sprintf("Balance %v != %v", a.Balance, b.Balance)
	case a.NonCut != b.NonCut:
		return fmt.Sprintf("NonCut %d != %d", a.NonCut, b.NonCut)
	case a.Cut != b.Cut:
		return fmt.Sprintf("Cut %d != %d", a.Cut, b.Cut)
	case a.CommCost != b.CommCost:
		return fmt.Sprintf("CommCost %d != %d", a.CommCost, b.CommCost)
	case a.PartStDev != b.PartStDev:
		return fmt.Sprintf("PartStDev %v != %v", a.PartStDev, b.PartStDev)
	case a.ReplicationFactor != b.ReplicationFactor:
		return fmt.Sprintf("ReplicationFactor %v != %v", a.ReplicationFactor, b.ReplicationFactor)
	case a.MaxEdges != b.MaxEdges:
		return fmt.Sprintf("MaxEdges %d != %d", a.MaxEdges, b.MaxEdges)
	case a.MaxVertices != b.MaxVertices:
		return fmt.Sprintf("MaxVertices %d != %d", a.MaxVertices, b.MaxVertices)
	}
	for p := 0; p < a.NumParts; p++ {
		if a.EdgesPerPart[p] != b.EdgesPerPart[p] {
			return fmt.Sprintf("EdgesPerPart[%d] %d != %d", p, a.EdgesPerPart[p], b.EdgesPerPart[p])
		}
		if a.VerticesPerPart[p] != b.VerticesPerPart[p] {
			return fmt.Sprintf("VerticesPerPart[%d] %d != %d", p, a.VerticesPerPart[p], b.VerticesPerPart[p])
		}
	}
	return ""
}

// TestMetricsProducersEquivalent asserts that the three ways of obtaining
// the §3.1 metric set — metrics.FromAssignment on the one-pass artifact, on
// the raw PID slice re-validated by partition.NewAssignment, and
// PartitionedGraph.Metrics derived
// from the built engine topology — agree bit-for-bit for every shipped
// strategy across the three graph families, at partition counts on both
// sides of the 64-partition bitset-word boundary.
func TestMetricsProducersEquivalent(t *testing.T) {
	graphs := pipelineGraphs(t)
	for gName, g := range graphs {
		for _, s := range pipelineStrategies() {
			for _, parts := range []int{5, 128} {
				name := fmt.Sprintf("%s/%s/%d", gName, s.Name(), parts)
				t.Run(name, func(t *testing.T) {
					a, err := partition.Assign(g, s, parts)
					if err != nil {
						t.Fatal(err)
					}
					var total int64
					for _, c := range a.EdgesPerPart {
						total += c
					}
					if int(total) != g.NumEdges() || a.NumEdges() != g.NumEdges() {
						t.Fatalf("assignment histogram sums to %d, graph has %d edges", total, g.NumEdges())
					}
					mAssign, err := metrics.FromAssignment(a)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := partition.NewAssignment(g, "", a.PIDs, parts)
					if err != nil {
						t.Fatal(err)
					}
					mRaw, err := metrics.FromAssignment(raw)
					if err != nil {
						t.Fatal(err)
					}
					pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					mTopo := pg.Metrics()
					if d := metricsDiff(mAssign, mRaw); d != "" {
						t.Fatalf("metrics.FromAssignment: artifact vs raw PIDs: %s", d)
					}
					if d := metricsDiff(mRaw, mTopo); d != "" {
						t.Fatalf("metrics.FromAssignment on raw PIDs vs PartitionedGraph.Metrics: %s", d)
					}
				})
			}
		}
	}
}

// countingStrategy wraps a Strategy and counts Partition invocations — the
// proof that the selection pipeline performs exactly one edge-assignment
// pass per candidate.
type countingStrategy struct {
	inner cutfit.Strategy
	calls int
}

func (c *countingStrategy) Name() string { return c.inner.Name() }

func (c *countingStrategy) Partition(g *graph.Graph, numParts int) ([]cutfit.PID, error) {
	c.calls++
	return c.inner.Partition(g, numParts)
}

// TestSelectAssignsExactlyOncePerCandidate proves the single-pass contract
// of empirical selection: Session.Select invokes each candidate's Partition
// exactly once, and building the winning topology from the session's cached
// Assignment adds zero further passes.
func TestSelectAssignsExactlyOncePerCandidate(t *testing.T) {
	g := pipelineGraphs(t)["rmat"]
	counters := make([]*countingStrategy, 0, 6)
	candidates := make([]cutfit.Strategy, 0, 6)
	for _, s := range cutfit.Strategies() {
		c := &countingStrategy{inner: s}
		counters = append(counters, c)
		candidates = append(candidates, c)
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	sel, err := se.Select(g, candidates, 16, cutfit.ProfilePageRank)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range counters {
		if c.calls != 1 {
			t.Fatalf("strategy %s partitioned %d times during selection, want exactly 1", c.Name(), c.calls)
		}
	}
	pg, err := se.Partition(g, sel.Strategy, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range counters {
		if c.calls != 1 {
			t.Fatalf("strategy %s re-partitioned while building the winner (calls=%d)", c.Name(), c.calls)
		}
	}
	// The built winner reports the same metric set the selection measured.
	if d := metricsDiff(pg.Metrics(), sel.Results[sel.Strategy.Name()]); d != "" {
		t.Fatalf("winner topology metrics diverge from measured selection: %s", d)
	}
	a, err := se.Assignment(g, sel.Strategy, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != sel.Strategy.Name() {
		t.Fatalf("assignment labeled %q, winner is %q", a.Strategy, sel.Strategy.Name())
	}
}

// TestStrategyByNameExtensions covers the Hybrid/Range resolver additions.
func TestStrategyByNameExtensions(t *testing.T) {
	for _, name := range []string{"Range", "Hybrid", "Hybrid:250"} {
		s, err := cutfit.StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", name, err)
		}
		g := pipelineGraphs(t)["road"]
		if _, err := cutfit.NewSession(cutfit.SessionOptions{}).Measure(g, s, 4); err != nil {
			t.Fatalf("measuring %q: %v", name, err)
		}
	}
	for _, bad := range []string{"Hybrid:", "Hybrid:-3", "Hybrid:x", "Blocked"} {
		if _, err := cutfit.StrategyByName(bad); err == nil {
			t.Fatalf("StrategyByName(%q) should error", bad)
		}
	}
}
