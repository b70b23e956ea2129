package algorithms

import (
	"context"
	"fmt"
	"sync"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// labelVotes counts neighbor label occurrences for label propagation.
type labelVotes map[graph.VertexID]int64

// LabelPropagation runs the static community-detection algorithm of
// GraphX's lib.LabelPropagation: every vertex starts in its own community
// and, each round, adopts the most frequent label among its neighbors
// (treating edges as undirected). Ties break toward the smaller label so
// the computation is deterministic. The algorithm is not guaranteed to
// converge (bipartite structures oscillate), so numIter is required.
func LabelPropagation(ctx context.Context, pg *pregel.PartitionedGraph, numIter int) ([]graph.VertexID, *pregel.RunStats, error) {
	if numIter <= 0 {
		return nil, nil, fmt.Errorf("algorithms: LabelPropagation needs numIter > 0, got %d", numIter)
	}
	prog := pregel.Program[graph.VertexID, labelVotes]{
		Init: func(id graph.VertexID) graph.VertexID { return id },
		VProg: func(id graph.VertexID, val graph.VertexID, msg labelVotes) graph.VertexID {
			if msg == nil { // superstep 0
				return val
			}
			best := val
			var bestCount int64 = -1
			for label, count := range msg {
				if count > bestCount || (count == bestCount && label < best) {
					best = label
					bestCount = count
				}
			}
			return best
		},
		SendMsg: func(t *pregel.Triplet[graph.VertexID], emit pregel.Emitter[labelVotes]) {
			emit.ToDst(labelVotes{t.SrcVal: 1})
			emit.ToSrc(labelVotes{t.DstVal: 1})
		},
		MergeMsg: func(a, b labelVotes) labelVotes {
			out := make(labelVotes, len(a)+len(b))
			for l, c := range a {
				out[l] += c
			}
			for l, c := range b {
				out[l] += c
			}
			return out
		},
		InitialMsg:      nil,
		MaxIterations:   numIter,
		ActiveDirection: pregel.AllEdges,
		MsgBytes:        func(m labelVotes) int { return 16 + 12*len(m) },
	}
	return pregel.Run(ctx, pg, prog)
}

// LabelPropagationSeq is the sequential oracle with identical semantics:
// synchronous updates, most-frequent-neighbor label, ties to the smaller
// label, fixed iteration count.
func LabelPropagationSeq(g *graph.Graph, numIter int) []graph.VertexID {
	verts := g.Vertices()
	nv := len(verts)
	labels := make([]graph.VertexID, nv)
	for i, v := range verts {
		labels[i] = v
	}
	next := make([]graph.VertexID, nv)
	for iter := 0; iter < numIter; iter++ {
		votes := make([]map[graph.VertexID]int64, nv)
		for _, e := range g.Edges() {
			si, _ := g.Index(e.Src)
			di, _ := g.Index(e.Dst)
			if votes[di] == nil {
				votes[di] = map[graph.VertexID]int64{}
			}
			votes[di][labels[si]]++
			if votes[si] == nil {
				votes[si] = map[graph.VertexID]int64{}
			}
			votes[si][labels[di]]++
		}
		for i := range labels {
			if votes[i] == nil {
				next[i] = labels[i]
				continue
			}
			best := labels[i]
			var bestCount int64 = -1
			for l, c := range votes[i] {
				if c > bestCount || (c == bestCount && l < best) {
					best = l
					bestCount = c
				}
			}
			next[i] = best
		}
		labels, next = next, labels
	}
	return labels
}

// KCore computes the k-core decomposition: the core number of a vertex is
// the largest k such that the vertex belongs to a subgraph where every
// vertex has (undirected) degree >= k. Implemented with the standard
// sequential peeling algorithm; used as both a library feature and the
// oracle for KCoreMembership.
func KCore(g *graph.Graph) []int32 {
	nv := g.NumVertices()
	deg := make([]int32, nv)
	var maxDeg int32
	for i := int32(0); i < int32(nv); i++ {
		deg[i] = int32(len(g.UndirectedNeighbors(i)))
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	// Bucket sort by degree (O(V+E) peeling).
	buckets := make([][]int32, maxDeg+1)
	for v := int32(0); v < int32(nv); v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	core := make([]int32, nv)
	removed := make([]bool, nv)
	cur := make([]int32, nv)
	copy(cur, deg)
	for d := int32(0); d <= maxDeg; d++ {
		for len(buckets[d]) > 0 {
			v := buckets[d][len(buckets[d])-1]
			buckets[d] = buckets[d][:len(buckets[d])-1]
			if removed[v] || cur[v] > d {
				continue
			}
			removed[v] = true
			core[v] = d
			for _, w := range g.UndirectedNeighbors(v) {
				if removed[w] || cur[w] <= d {
					continue
				}
				cur[w]--
				b := cur[w]
				if b < d {
					b = d
				}
				buckets[b] = append(buckets[b], w)
			}
		}
	}
	return core
}

// KCoreMembership computes, on the partitioned graph, which vertices
// belong to the k-core: vertices with fewer than k live (undirected,
// deduplicated) neighbors are iteratively removed until a fixpoint. It
// returns a boolean per dense vertex index.
//
// Like GraphX's iterated-aggregateMessages jobs, the driver coordinates
// peeling rounds: each round is one engine superstep that counts every
// live vertex's live neighbors, then the driver kills vertices below k.
// The per-round statistics are concatenated so the cluster model charges
// every peeling round.
func KCoreMembership(ctx context.Context, pg *pregel.PartitionedGraph, k int32) ([]bool, *pregel.RunStats, error) {
	if k < 0 {
		return nil, nil, fmt.Errorf("algorithms: KCoreMembership needs k >= 0, got %d", k)
	}
	g := pg.G
	nv := g.NumVertices()
	alive := make([]bool, nv)
	for i := range alive {
		alive[i] = true
	}
	aliveOf := func(id graph.VertexID) bool {
		i, _ := g.Index(id)
		return alive[i]
	}
	// Deduplicate undirected pairs so parallel and reciprocal edges count
	// a neighbor once, matching the simple-graph degree of KCore.
	type pair struct{ a, b graph.VertexID }
	counted := make(map[pair]struct{}, g.NumEdges())
	canon := func(a, b graph.VertexID) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}

	merged := &pregel.RunStats{Converged: true}
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("algorithms: k-core round %d: %w", round, err)
		}
		for key := range counted {
			delete(counted, key)
		}
		var mu sync.Mutex
		prog := pregel.Program[bool, int32]{
			Init:  func(id graph.VertexID) bool { return aliveOf(id) },
			VProg: func(id graph.VertexID, val bool, msg int32) bool { return val },
			SendMsg: func(t *pregel.Triplet[bool], emit pregel.Emitter[int32]) {
				if t.SrcIdx == t.DstIdx || !t.SrcVal || !t.DstVal {
					return
				}
				key := canon(t.SrcID(), t.DstID())
				mu.Lock()
				if _, dup := counted[key]; dup {
					mu.Unlock()
					return
				}
				counted[key] = struct{}{}
				mu.Unlock()
				emit.ToSrc(1)
				emit.ToDst(1)
			},
			MergeMsg:        func(a, b int32) int32 { return a + b },
			InitialMsg:      0,
			MaxIterations:   1,
			ActiveDirection: pregel.AllEdges,
		}
		// liveDeg arrives as the per-vertex message sum; recover it by
		// running one superstep and reading the reduce side indirectly:
		// messages are folded into vertex values via a counting program.
		counts, stats, err := runNeighborCount(ctx, pg, prog)
		if err != nil {
			return nil, nil, err
		}
		merged.Supersteps = append(merged.Supersteps, stats.Supersteps...)
		deaths := 0
		for v := 0; v < nv; v++ {
			if alive[v] && counts[v] < k {
				alive[v] = false
				deaths++
			}
		}
		if deaths == 0 {
			break
		}
	}
	return alive, merged, nil
}

// runNeighborCount executes one superstep of the given liveness program
// and returns the per-vertex merged message counts.
func runNeighborCount(ctx context.Context, pg *pregel.PartitionedGraph, base pregel.Program[bool, int32]) ([]int32, *pregel.RunStats, error) {
	nv := pg.G.NumVertices()
	counts := make([]int32, nv)
	prog := pregel.Program[bool, int32]{
		Init: base.Init,
		VProg: func(id graph.VertexID, val bool, msg int32) bool {
			// The apply phase shards vertices disjointly, so writing
			// counts[i] from VProg is race-free.
			if msg > 0 {
				i, _ := pg.G.Index(id)
				counts[i] = msg
			}
			return val
		},
		SendMsg:         base.SendMsg,
		MergeMsg:        base.MergeMsg,
		InitialMsg:      0,
		MaxIterations:   1,
		ActiveDirection: pregel.AllEdges,
	}
	_, stats, err := pregel.Run(ctx, pg, prog)
	if err != nil {
		return nil, nil, err
	}
	return counts, stats, nil
}
