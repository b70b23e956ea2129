package algorithms

import (
	"context"
	"fmt"
	"math"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// ccInitSentinel is the superstep-0 initial message; it is larger than any
// vertex ID so the min-merge leaves the initial label untouched.
const ccInitSentinel = graph.VertexID(math.MaxInt64)

// ConnectedComponents runs GraphX-style label propagation: every vertex
// starts labeled with its own ID and repeatedly adopts the minimum label of
// its neighbors, treating edges as undirected. maxIter caps the number of
// message rounds (0 = run to convergence; the paper's experiments use 10).
// It returns the component label per dense vertex index and the run stats.
func ConnectedComponents(ctx context.Context, pg *pregel.PartitionedGraph, maxIter int) ([]graph.VertexID, *pregel.RunStats, error) {
	return typed[[]graph.VertexID](ccAlg.Run(ctx, pg, Params{Iters: maxIter}))
}

var ccAlg = resumable[graph.VertexID, graph.VertexID](vertexEntry(Entry{
	Name:    "cc",
	Profile: ProfileCC,
	Check:   noParams,
	Summarize: func(g *graph.Graph, values any, stats *pregel.RunStats) Summary {
		n := countLabels(g.Vertices(), values.([]graph.VertexID), stats.Converged)
		return Summary{Components: n, Text: fmt.Sprintf("components: %d (converged=%v)", n, stats.Converged)}
	},
	Seq: func(g *graph.Graph, _ Params) any { return ConnectedComponentsSeq(g) },
}, Vertex[graph.VertexID, graph.VertexID]{
	Program: func(p Params, _ func() []int32) pregel.Program[graph.VertexID, graph.VertexID] {
		return pregel.Program[graph.VertexID, graph.VertexID]{
			Init: func(id graph.VertexID) graph.VertexID { return id },
			VProg: func(id graph.VertexID, val, msg graph.VertexID) graph.VertexID {
				if msg < val {
					return msg
				}
				return val
			},
			SendMsg: func(t *pregel.Triplet[graph.VertexID], emit pregel.Emitter[graph.VertexID]) {
				if t.SrcVal < t.DstVal {
					emit.ToDst(t.SrcVal)
				} else if t.DstVal < t.SrcVal {
					emit.ToSrc(t.DstVal)
				}
			},
			MergeMsg: func(a, b graph.VertexID) graph.VertexID {
				if a < b {
					return a
				}
				return b
			},
			InitialMsg:      ccInitSentinel,
			MaxIterations:   p.Iters,
			ActiveDirection: pregel.Either,
		}
	},
	VC:     VertexIDCodec{},
	MC:     VertexIDCodec{},
	Values: func(labels []graph.VertexID) any { return labels },
}))

// ConnectedComponentsSeq is the union-find oracle; it returns the minimum
// vertex ID of each vertex's component, aligned with g.Vertices().
func ConnectedComponentsSeq(g *graph.Graph) []graph.VertexID {
	labels, _ := g.ConnectedComponents()
	return labels
}

// CountComponents returns the number of distinct labels.
func CountComponents(labels []graph.VertexID) int {
	set := make(map[graph.VertexID]struct{}, 64)
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}
