package algorithms

import (
	"context"
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// DistMap maps a landmark vertex to the shortest known hop distance.
type DistMap map[graph.VertexID]int32

// clone returns a copy of m.
func (m DistMap) clone() DistMap {
	out := make(DistMap, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeMin returns the element-wise minimum union of a and b, reusing a
// when possible is avoided to keep messages immutable.
func mergeMin(a, b DistMap) DistMap {
	out := make(DistMap, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if cur, ok := out[k]; !ok || v < cur {
			out[k] = v
		}
	}
	return out
}

// improvesByHop reports whether src would lower (or gain) any entry by
// adopting dst's distances one hop further — the test SendMsg needs,
// answered without building the candidate map.
func improvesByHop(src, dst DistMap) bool {
	for k, v := range dst {
		if cur, ok := src[k]; !ok || v+1 < cur {
			return true
		}
	}
	return false
}

// ShortestPaths computes, for every vertex, the hop distance to each of the
// given landmark vertices along outgoing edges, exactly like GraphX's
// ShortestPaths: distance maps propagate backwards (from edge destination
// to source), and each vertex value is a map landmark→distance containing
// only reachable landmarks. maxIter of 0 runs to convergence.
func ShortestPaths(ctx context.Context, pg *pregel.PartitionedGraph, landmarks []graph.VertexID, maxIter int) ([]DistMap, *pregel.RunStats, error) {
	if len(landmarks) == 0 {
		return nil, nil, fmt.Errorf("algorithms: ShortestPaths needs at least one landmark")
	}
	isLandmark := make(map[graph.VertexID]bool, len(landmarks))
	for _, l := range landmarks {
		isLandmark[l] = true
	}
	mapBytes := func(m DistMap) int { return 16 + 12*len(m) }
	prog := pregel.Program[DistMap, DistMap]{
		Init: func(id graph.VertexID) DistMap {
			if isLandmark[id] {
				return DistMap{id: 0}
			}
			return DistMap{}
		},
		VProg: func(id graph.VertexID, val, msg DistMap) DistMap {
			if msg == nil { // superstep-0 initial message
				return val
			}
			return mergeMin(val, msg)
		},
		SendMsg: func(t *pregel.Triplet[DistMap], emit pregel.Emitter[DistMap]) {
			// Distances travel against edge direction: src reaches every
			// landmark dst reaches, one hop further.
			if !improvesByHop(t.SrcVal, t.DstVal) {
				return
			}
			cand := make(DistMap, len(t.DstVal))
			for k, v := range t.DstVal {
				cand[k] = v + 1
			}
			emit.ToSrc(cand)
		},
		MergeMsg:        mergeMin,
		InitialMsg:      nil,
		MaxIterations:   maxIter,
		ActiveDirection: pregel.In, // scan edges whose destination updated
		StateBytes:      mapBytes,
		MsgBytes:        mapBytes,
		EdgeCost: func(t *pregel.Triplet[DistMap]) float64 {
			return 1 + float64(len(t.DstVal))
		},
	}
	return pregel.Run(ctx, pg, prog)
}

// ShortestPathsSeq is the sequential oracle: BFS from each landmark over
// the reversed graph yields, for every vertex, the forward hop distance to
// that landmark. The result is aligned with g.Vertices().
func ShortestPathsSeq(g *graph.Graph, landmarks []graph.VertexID) []DistMap {
	verts := g.Vertices()
	nv := len(verts)
	out := make([]DistMap, nv)
	for i := range out {
		out[i] = DistMap{}
	}
	for _, l := range landmarks {
		li, ok := g.Index(l)
		if !ok {
			continue
		}
		dist := make([]int32, nv)
		for i := range dist {
			dist[i] = -1
		}
		dist[li] = 0
		queue := []int32{li}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			// Predecessors of v (in-neighbors) are one hop further away.
			for _, u := range g.InNeighbors(v) {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for i := 0; i < nv; i++ {
			if dist[i] >= 0 {
				out[i][l] = dist[i]
			}
		}
	}
	return out
}
