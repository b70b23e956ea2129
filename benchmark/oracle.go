package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/testutil"
)

const (
	topK = 5 // ranks a RunReport carries
	// dynamicPRTol is the per-vertex tolerance Session.Run uses for
	// "dynamicpr"; the oracle iterates ten times tighter.
	dynamicPRTol = 1e-3
	// Static pagerank is the same arithmetic as its sequential twin up to
	// summation order. Delta-gated pagerank stops propagating changes below
	// its tolerance, so the hubs' ranks settle a percent or two under the
	// converged values (1.7 % on the seed-1 graph); the engine's exactness
	// on this algorithm is covered by dist-2w's byte comparison instead.
	pagerankRelTol  = 1e-9
	dynamicPRRelTol = 5e-2
)

// rankOracle is a reference rank vector that reported top ranks are checked
// against. The check is by value, not by position: R-MAT hubs come in
// near-ties (on two seeds in three at scale 15, two of the top six ranks are
// within 0.25 % of each other), so an answer that is right to within the tolerance
// may still order two of them the other way round, or prefer the sixth to
// the fifth.
type rankOracle struct {
	rank map[cutfit.VertexID]float64
	kth  float64 // the topK-th highest reference rank
}

func newRankOracle(g *graph.Graph, ranks []float64) *rankOracle {
	o := &rankOracle{rank: make(map[cutfit.VertexID]float64, len(ranks))}
	for i, v := range g.Vertices() {
		o.rank[v] = ranks[i]
	}
	if top := topRanks(g, ranks, topK); len(top) > 0 {
		o.kth = top[len(top)-1].Rank
	}
	return o
}

// check accepts got when it is a top-topK list of the reference ranks up to
// relTol: topK distinct vertices in descending order of reported rank, each
// rank within relTol of the vertex's reference rank, and none of them a
// vertex whose reference rank is below the topK-th by more than the
// tolerance can explain.
func (o *rankOracle) check(got []cutfit.VertexRank, relTol float64) error {
	want := topK
	if len(o.rank) < want {
		want = len(o.rank)
	}
	if len(got) != want {
		return fmt.Errorf("got %d top ranks, want %d", len(got), want)
	}
	seen := make(map[cutfit.VertexID]bool, len(got))
	for i, r := range got {
		ref, ok := o.rank[r.Vertex]
		switch {
		case !ok:
			return fmt.Errorf("top rank %d is vertex %d, which the graph does not have", i, r.Vertex)
		case seen[r.Vertex]:
			return fmt.Errorf("vertex %d is listed twice", r.Vertex)
		case i > 0 && r.Rank > got[i-1].Rank:
			return fmt.Errorf("top ranks are not in descending order at %d", i)
		case math.Abs(r.Rank-ref) > relTol*math.Abs(ref):
			return fmt.Errorf("rank of vertex %d is %.12g, want %.12g", r.Vertex, r.Rank, ref)
		case ref*(1+relTol) < o.kth*(1-relTol):
			return fmt.Errorf("vertex %d (reference rank %.12g) is not among the top %d (from %.12g)", r.Vertex, ref, topK, o.kth)
		}
		seen[r.Vertex] = true
	}
	return nil
}

// expect holds the answers the sequential reference implementations give
// for one graph, computed once in set-up; every timed result is compared
// against it.
type expect struct {
	pagerank   *rankOracle
	dynamicpr  *rankOracle
	components int
	landmark   cutfit.VertexID
	reached    int
	triangles  int64
	advise     string
	measure    *metrics.Result
}

// topRanks mirrors the selection Session.Run reports: the k highest ranks,
// ties broken by vertex id.
func topRanks(g *graph.Graph, ranks []float64, k int) []cutfit.VertexRank {
	verts := g.Vertices()
	all := make([]cutfit.VertexRank, len(ranks))
	for i, r := range ranks {
		all[i] = cutfit.VertexRank{Vertex: verts[i], Rank: r}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank != all[j].Rank {
			return all[i].Rank > all[j].Rank
		}
		return all[i].Vertex < all[j].Vertex
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func countComponents(g *graph.Graph) int {
	return algorithms.CountComponents(algorithms.ConnectedComponentsSeq(g))
}

// expectFor computes the reference answers for the given request classes.
func expectFor(g *graph.Graph, classes []string) (*expect, error) {
	x := &expect{}
	for _, c := range classes {
		switch c {
		case "pagerank":
			x.pagerank = newRankOracle(g, algorithms.PageRankSeq(g, pagerankIters, algorithms.DefaultResetProb))
		case "dynamicpr":
			x.dynamicpr = newRankOracle(g, algorithms.DynamicPageRankSeq(g, dynamicPRTol/10, algorithms.DefaultResetProb))
		case "cc":
			x.components = countComponents(g)
		case "sssp":
			x.landmark = g.Vertices()[0]
			for _, d := range algorithms.ShortestPathsSeq(g, []graph.VertexID{x.landmark}) {
				if len(d) > 0 {
					x.reached++
				}
			}
		case "triangles":
			x.triangles = algorithms.TotalTriangles(algorithms.TriangleCountSeq(g))
		case "advise":
			x.advise = cutfit.NewSession(cutfit.SessionOptions{}).Advise(g, cutfit.ProfilePageRank, numParts).Strategy.Name()
		case "measure":
			a, err := partition.Assign(g, mustStrategy(fixedStrategy), numParts)
			if err != nil {
				return nil, err
			}
			if x.measure, err = metrics.FromAssignment(a); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("oracle: unknown class %q", c)
		}
	}
	return x, nil
}

func mustStrategy(name string) partition.Strategy {
	s, err := partition.ByName(name)
	if err != nil {
		panic(err) // names are compile-time constants of this package
	}
	return s
}

// checkRun compares one run report with the reference answer for its
// algorithm.
func (x *expect) checkRun(alg string, rep *cutfit.RunReport) error {
	switch alg {
	case "pagerank":
		return x.pagerank.check(rep.TopRanks, pagerankRelTol)
	case "dynamicpr":
		if !rep.Converged {
			return fmt.Errorf("dynamicpr did not converge")
		}
		return x.dynamicpr.check(rep.TopRanks, dynamicPRRelTol)
	case "cc":
		if rep.Components != x.components {
			return fmt.Errorf("cc found %d components, want %d", rep.Components, x.components)
		}
	case "sssp":
		if rep.Landmark == nil || *rep.Landmark != x.landmark || rep.Reached != x.reached {
			return fmt.Errorf("sssp reached %d vertices, want %d from %d", rep.Reached, x.reached, x.landmark)
		}
	case "triangles":
		if rep.Triangles != x.triangles {
			return fmt.Errorf("triangles counted %d, want %d", rep.Triangles, x.triangles)
		}
	default:
		return fmt.Errorf("oracle: unknown algorithm %q", alg)
	}
	return nil
}

// checkBody decodes a daemon reply of the given class and compares it with
// the reference answer.
func (x *expect) checkBody(class string, body []byte) error {
	switch class {
	case "advise":
		var rep cutfit.AdviseReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		if rep.Strategy != x.advise {
			return fmt.Errorf("advise recommends %s, want %s", rep.Strategy, x.advise)
		}
		return nil
	case "measure":
		var rep cutfit.MetricsReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		m := x.measure
		if rep.CommCost != m.CommCost || rep.Cut != m.Cut || rep.NonCut != m.NonCut || rep.Balance != m.Balance {
			return fmt.Errorf("metrics reply %+v disagrees with the direct computation", rep)
		}
		return nil
	}
	var rep cutfit.RunReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	return x.checkRun(class, &rep)
}

// selectOracle returns the paper strategy that minimises the profile's
// predictive metric on g — first strictly smaller value wins, in table
// order — computed without Session or core.
func selectOracle(g *graph.Graph, metric string) (string, error) {
	best, bestVal := "", 0.0
	for _, name := range paperStrategies {
		a, err := partition.Assign(g, mustStrategy(name), numParts)
		if err != nil {
			return "", err
		}
		m, err := metrics.FromAssignment(a)
		if err != nil {
			return "", err
		}
		v, err := m.MetricByName(metric)
		if err != nil {
			return "", err
		}
		if best == "" || v < bestVal {
			best, bestVal = name, v
		}
	}
	return best, nil
}

// checkTopology runs the repository's partition-invariant checker on a
// built topology and the assignment it came from.
func checkTopology(g *graph.Graph, a *partition.Assignment, pg *pregel.PartitionedGraph) error {
	return testutil.CheckPartitionInvariants(g, a.PIDs, numParts, pg)
}
