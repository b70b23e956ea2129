// Package algorithms implements the four analytics computations of the
// paper's evaluation — PageRank, Connected Components, Triangle Count and
// Single-Source Shortest Paths — on the Pregel engine, mirroring their
// GraphX implementations, together with sequential reference
// implementations used as correctness oracles in tests. served.go holds the
// table of the algorithms the library serves by name: the one description of
// each that Session.Run, the CLI, the advisor and the cluster all look up.
package algorithms

import (
	"context"
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// DefaultResetProb is the PageRank damping complement used by GraphX.
const DefaultResetProb = 0.15

// prInitSentinel marks the superstep-0 initial message, which must leave
// the initial rank untouched (GraphX seeds ranks at 1.0 before iterating).
const prInitSentinel = -1.0

// PageRank runs static PageRank for numIter message rounds on the
// partitioned graph, exactly like GraphX's staticPageRank: ranks start at
// 1.0 and each round every vertex with incoming edges updates to
// resetProb + (1-resetProb) · Σ_{u→v} rank(u)/outDeg(u).
// It returns the rank per dense vertex index (aligned with pg.G.Vertices())
// and the engine statistics.
func PageRank(ctx context.Context, pg *pregel.PartitionedGraph, numIter int, resetProb float64) ([]float64, *pregel.RunStats, error) {
	return typed[[]float64](pageRankAlg.Run(ctx, pg, Params{Iters: numIter, ResetProb: resetProb}))
}

var pageRankAlg = vertexEntry(Entry{
	Name:    "pagerank",
	Profile: ProfilePageRank,
	Check: func(p Params) error {
		if p.Iters <= 0 {
			return fmt.Errorf("algorithms: PageRank needs numIter > 0, got %d", p.Iters)
		}
		return checkResetProb("PageRank", p.ResetProb)
	},
	Summarize: summarizeRanks,
	Seq:       func(g *graph.Graph, p Params) any { return PageRankSeq(g, p.Iters, p.ResetProb) },
}, Vertex[float64, float64]{
	Program: func(p Params, outDeg []int32) pregel.Program[float64, float64] {
		resetProb := p.ResetProb
		return pregel.Program[float64, float64]{
			Init: func(id graph.VertexID) float64 { return 1.0 },
			VProg: func(id graph.VertexID, val, msg float64) float64 {
				if msg == prInitSentinel {
					return val
				}
				return resetProb + (1-resetProb)*msg
			},
			SendMsg: func(t *pregel.Triplet[float64], emit pregel.Emitter[float64]) {
				if d := outDeg[t.SrcIdx]; d > 0 {
					emit.ToDst(t.SrcVal / float64(d))
				}
			},
			MergeMsg:        func(a, b float64) float64 { return a + b },
			InitialMsg:      prInitSentinel,
			MaxIterations:   p.Iters,
			ActiveDirection: pregel.AllEdges, // static PR scans all edges every round
		}
	},
	VC:     F64Codec{},
	MC:     F64Codec{},
	Values: func(ranks []float64) any { return ranks },
})

// PageRankSeq is the sequential oracle with identical semantics to
// PageRank (only vertices with at least one incoming edge update).
func PageRankSeq(g *graph.Graph, numIter int, resetProb float64) []float64 {
	verts := g.Vertices()
	nv := len(verts)
	outDeg := g.OutDegrees()
	inDeg := g.InDegrees()
	ranks := make([]float64, nv)
	for i := range ranks {
		ranks[i] = 1.0
	}
	next := make([]float64, nv)
	for it := 0; it < numIter; it++ {
		for i := range next {
			next[i] = 0
		}
		for _, e := range g.Edges() {
			si, _ := g.Index(e.Src)
			di, _ := g.Index(e.Dst)
			if outDeg[si] > 0 {
				next[di] += ranks[si] / float64(outDeg[si])
			}
		}
		for i := range ranks {
			if inDeg[i] > 0 {
				ranks[i] = resetProb + (1-resetProb)*next[i]
			}
		}
	}
	return ranks
}
