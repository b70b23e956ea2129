package algorithms

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// Unreached is the distance HopTable reports from a vertex that cannot
// reach the landmark.
const Unreached int32 = math.MaxInt32

// MaxLandmarks is the most distinct landmarks one run can carry: the vertex
// value is a fixed-width distance vector, and 64 slots is its widest form.
const MaxLandmarks = 64

// DistMap maps a landmark vertex to the shortest known hop distance — the
// per-vertex form ShortestPaths and ShortestPathsSeq return their results
// in.
type DistMap map[graph.VertexID]int32

// HopTable is the result of HopDistances: one row per vertex (aligned with
// Graph.Vertices()), one column per distinct landmark.
type HopTable struct {
	// Landmarks are the distinct landmarks in first-occurrence order;
	// Landmarks[j] heads column j.
	Landmarks []graph.VertexID
	// Dist is row-major: Dist[v*len(Landmarks)+j] is the hop distance from
	// vertex v to Landmarks[j], or Unreached.
	Dist []int32
}

// NumVertices is the number of rows.
func (h HopTable) NumVertices() int { return len(h.Dist) / max(len(h.Landmarks), 1) }

// Row returns vertex v's distances, one per landmark.
func (h HopTable) Row(v int) []int32 {
	k := len(h.Landmarks)
	return h.Dist[v*k : (v+1)*k]
}

// Reached counts the vertices that reach at least one landmark.
func (h HopTable) Reached() int {
	n := 0
	for v := 0; v < h.NumVertices(); v++ {
		if slices.ContainsFunc(h.Row(v), func(d int32) bool { return d != Unreached }) {
			n++
		}
	}
	return n
}

// DistMaps converts the table to one map per vertex holding only the
// landmarks that vertex reaches.
func (h HopTable) DistMaps() []DistMap {
	out := make([]DistMap, h.NumVertices())
	for v := range out {
		out[v] = DistMap{}
		for j, d := range h.Row(v) {
			if d != Unreached {
				out[v][h.Landmarks[j]] = d
			}
		}
	}
	return out
}

// distVec is a vertex value and a message of the shortest-paths program:
// slot j holds the hop distance to landmark j, Unreached until one is known.
// Fixed-width and pointer-free, so a superstep allocates nothing per vertex
// or message and a parked scratch weighs exactly what its slots do. Slots
// past the landmark count stay Unreached and are never counted.
type distVec interface {
	~[1]int32 | ~[2]int32 | ~[4]int32 | ~[8]int32 | ~[16]int32 | ~[32]int32 | ~[64]int32
}

// HopDistances computes, for every vertex, the hop distance to each of the
// given landmark vertices along outgoing edges, exactly like GraphX's
// ShortestPaths: distances propagate backwards (from edge destination to
// source), one hop per superstep. Duplicate landmarks share one column, a
// landmark that is not a vertex of the graph is reached from nowhere, and
// more than MaxLandmarks distinct landmarks is an error. maxIter of 0 runs
// to convergence.
func HopDistances(ctx context.Context, pg *pregel.PartitionedGraph, landmarks []graph.VertexID, maxIter int) (HopTable, *pregel.RunStats, error) {
	var lm []graph.VertexID
	for _, l := range landmarks {
		if slices.Contains(lm, l) {
			continue
		}
		if len(lm) == MaxLandmarks {
			return HopTable{}, nil, fmt.Errorf("algorithms: shortest paths take at most %d distinct landmarks", MaxLandmarks)
		}
		lm = append(lm, l)
	}
	if len(lm) == 0 {
		return HopTable{}, nil, fmt.Errorf("algorithms: ShortestPaths needs at least one landmark")
	}
	// The narrowest vector that holds them: widths are powers of two.
	run := [...]func(context.Context, *pregel.PartitionedGraph, []graph.VertexID, int) ([]int32, *pregel.RunStats, error){
		hopDistances[[1]int32], hopDistances[[2]int32], hopDistances[[4]int32], hopDistances[[8]int32],
		hopDistances[[16]int32], hopDistances[[32]int32], hopDistances[[64]int32],
	}[bits.Len(uint(len(lm)-1))]
	dist, stats, err := run(ctx, pg, lm, maxIter)
	if err != nil {
		return HopTable{}, nil, err
	}
	return HopTable{Landmarks: lm, Dist: dist}, stats, nil
}

// hopDistances runs the shortest-paths program at one vector width and
// returns the distances of the first len(lm) slots, row-major.
func hopDistances[V distVec](ctx context.Context, pg *pregel.PartitionedGraph, lm []graph.VertexID, maxIter int) ([]int32, *pregel.RunStats, error) {
	var none V
	for j := 0; j < len(none); j++ {
		none[j] = Unreached
	}
	reached := func(v V) int {
		n := 0
		for j := 0; j < len(v); j++ {
			if v[j] != Unreached {
				n++
			}
		}
		return n
	}
	// Accounted as the landmark→distance map GraphX ships: a 16-byte header
	// and 12 bytes per reached landmark.
	vecBytes := func(v V) int { return 16 + 12*reached(v) }
	minVec := func(a, b V) V {
		for j := 0; j < len(a); j++ {
			a[j] = min(a[j], b[j])
		}
		return a
	}
	prog := pregel.Program[V, V]{
		Init: func(id graph.VertexID) V {
			v := none
			if j := slices.Index(lm, id); j >= 0 {
				v[j] = 0
			}
			return v
		},
		VProg: func(_ graph.VertexID, val, msg V) V { return minVec(val, msg) },
		SendMsg: func(t *pregel.Triplet[V], emit pregel.Emitter[V]) {
			// Distances travel against edge direction: src reaches every
			// landmark dst reaches, one hop further.
			cand, improves := none, false
			for j := 0; j < len(none); j++ {
				if d := t.DstVal[j]; d != Unreached {
					cand[j] = d + 1
					improves = improves || d+1 < t.SrcVal[j]
				}
			}
			if improves {
				emit.ToSrc(cand)
			}
		},
		MergeMsg:        minVec,
		InitialMsg:      none,
		MaxIterations:   maxIter,
		ActiveDirection: pregel.In, // scan edges whose destination updated
		StateBytes:      vecBytes,
		MsgBytes:        vecBytes,
		EdgeCost: func(t *pregel.Triplet[V]) float64 {
			return 1 + float64(reached(t.DstVal))
		},
	}
	vals, stats, err := pregel.Run(ctx, pg, prog)
	if err != nil {
		return nil, nil, err
	}
	k := len(lm)
	dist := make([]int32, 0, len(vals)*k)
	for i := range vals {
		for j := 0; j < k; j++ {
			dist = append(dist, vals[i][j])
		}
	}
	return dist, stats, nil
}

// ShortestPaths is HopDistances with the result as one DistMap per vertex.
func ShortestPaths(ctx context.Context, pg *pregel.PartitionedGraph, landmarks []graph.VertexID, maxIter int) ([]DistMap, *pregel.RunStats, error) {
	h, stats, err := HopDistances(ctx, pg, landmarks, maxIter)
	if err != nil {
		return nil, nil, err
	}
	return h.DistMaps(), stats, nil
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

var ssspAlg = &Entry{
	Name:    "sssp",
	Profile: ProfileSSSP,
	Check:   noParams,
	Run: func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (any, *pregel.RunStats, error) {
		lm, err := landmarksOr(pg.G, p.Landmarks)
		if err != nil {
			return nil, nil, err
		}
		hops, stats, err := HopDistances(ctx, pg, lm, 0)
		return hops, stats, err
	},
	Summarize: func(_ *graph.Graph, values any, _ *pregel.RunStats) Summary {
		hops := values.(HopTable)
		landmark, reached := hops.Landmarks[0], hops.Reached()
		return Summary{Landmark: &landmark, Reached: reached,
			Text: fmt.Sprintf("sssp: landmark %d reached from %d/%d vertices", landmark, reached, hops.NumVertices())}
	},
	Seq: func(g *graph.Graph, p Params) any {
		lm, _ := landmarksOr(g, p.Landmarks) // no vertices: no landmark, no rows
		return ShortestPathsSeq(g, lm)
	},
}

// landmarksOr returns the given sssp landmarks, or g's first vertex for none.
func landmarksOr(g *graph.Graph, landmarks []graph.VertexID) ([]graph.VertexID, error) {
	if landmarks != nil {
		return landmarks, nil
	}
	verts := g.Vertices()
	if len(verts) == 0 {
		return nil, errors.New("algorithms: sssp needs a non-empty graph")
	}
	return verts[:1], nil
}
