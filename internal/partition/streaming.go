package partition

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

// The streaming partitioners below are not part of the paper's evaluated
// set; they implement the related-work algorithms (§5: PowerGraph-style
// greedy streaming partitioning, HDRF) and are used by the ablation
// benchmarks to show how the paper's hash-based design space compares
// against stateful streaming assignment.
//
// All three stateful strategies (Greedy, HDRF, Hybrid) are *prefix
// streaming*: the assignment of edge i depends only on edges[0..i]. HDRF
// uses the partial degrees observed in the stream so far (as in Petroni et
// al.) and Hybrid thresholds on the in-degree observed so far, so none of
// them peeks at future edges. That property is what makes them resumable —
// continuing a retained StreamState over an appended edge suffix produces
// exactly the assignment a one-shot pass over the full edge list would,
// bit for bit.

// Resumable is implemented by strategies whose assignment can be continued
// over an appended edge suffix. Stateful streaming strategies expose their
// per-run state; stateless hash strategies implement SuffixAssigner
// instead (no state to carry).
type Resumable interface {
	Strategy
	// NewStream returns empty resumable state targeting numParts
	// partitions.
	NewStream(numParts int) (*StreamState, error)
}

// SuffixAssigner is implemented by strategies whose per-edge assignment
// depends only on the edge itself (the stateless hash family), so any edge
// suffix can be assigned in isolation.
type SuffixAssigner interface {
	Strategy
	// AssignSuffix assigns edges, writing one PID per edge into out
	// (len(out) == len(edges)).
	AssignSuffix(edges []graph.Edge, out []PID, numParts int) error
}

// streamKind selects the per-edge rule a StreamState applies.
type streamKind uint8

const (
	streamGreedy streamKind = iota
	streamHDRF
	streamHybrid
)

// streamVertex is one vertex's retained streaming state: the partitions it
// has been replicated to and the partial degrees observed so far. Degrees
// and loads are float64 (HDRF's scores divide them); each edge contributes
// exactly 1.0, and float64 addition over integers below 2^53 is exact.
type streamVertex struct {
	replicas []PID
	deg      float64 // total partial degree (HDRF's θ)
	inDeg    int64   // partial in-degree edge count (Hybrid's threshold)
}

// StreamState is the retained state of a streaming partitioner run: which
// partitions each vertex has been replicated to, per-partition load, and
// the partial degrees observed so far. State is keyed by vertex ID — never
// by dense vertex index — so it stays valid as the graph grows; a
// StreamState may therefore be resumed over an appended edge suffix
// (Assignment.Extend) and produces exactly the assignment a one-shot pass
// over the full edge list would.
//
// A StreamState is not safe for concurrent use; Assignment serializes
// access to its retained state.
type StreamState struct {
	kind      streamKind
	numParts  int
	lambda    float64 // HDRF balance weight
	threshold int64   // Hybrid in-degree cutoff

	load         []float64
	maxLoad      float64
	verts        map[graph.VertexID]*streamVertex
	replicaSlots int64 // Σ len(replicas), for footprint accounting
}

func newStreamState(kind streamKind, numParts int) (*StreamState, error) {
	if err := checkParts(numParts); err != nil {
		return nil, err
	}
	return &StreamState{
		kind:     kind,
		numParts: numParts,
		load:     make([]float64, numParts),
		verts:    make(map[graph.VertexID]*streamVertex),
	}, nil
}

// NumParts returns the partition count the state targets.
func (st *StreamState) NumParts() int { return st.numParts }

// AssignEdges streams edges through the degree and load tables, each
// adding 1, writing one PID per edge into out (len(out) == len(edges)).
// Calling it repeatedly over consecutive chunks of one edge list is
// equivalent to a single call over the whole list.
func (st *StreamState) AssignEdges(edges []graph.Edge, out []PID) {
	switch st.kind {
	case streamGreedy:
		for i, e := range edges {
			out[i] = st.assignGreedy(e)
		}
	case streamHDRF:
		for i, e := range edges {
			out[i] = st.assignHDRF(e)
		}
	case streamHybrid:
		for i, e := range edges {
			out[i] = st.assignHybrid(e)
		}
	}
}

// MemoryFootprint approximates the bytes retained by the state (used by
// cache layers when an Assignment carrying it is the eviction candidate).
func (st *StreamState) MemoryFootprint() int64 {
	const perVertex = 8 + 8 + 48 // map slot + pointer + streamVertex
	return int64(len(st.load))*8 + int64(len(st.verts))*perVertex + st.replicaSlots*4
}

// vert returns (creating if needed) the state of vertex v.
func (st *StreamState) vert(v graph.VertexID) *streamVertex {
	sv, ok := st.verts[v]
	if !ok {
		sv = &streamVertex{}
		st.verts[v] = sv
	}
	return sv
}

func (sv *streamVertex) has(p PID) bool {
	for _, q := range sv.replicas {
		if q == p {
			return true
		}
	}
	return false
}

func (st *StreamState) place(sv *streamVertex, p PID) {
	if !sv.has(p) {
		sv.replicas = append(sv.replicas, p)
		st.replicaSlots++
	}
}

func (st *StreamState) commit(s, d *streamVertex, p PID) PID {
	st.place(s, p)
	st.place(d, p)
	st.load[p]++
	if st.load[p] > st.maxLoad {
		st.maxLoad = st.load[p]
	}
	return p
}

func (st *StreamState) leastLoaded(candidates []PID) PID {
	best := candidates[0]
	for _, p := range candidates[1:] {
		if st.load[p] < st.load[best] {
			best = p
		}
	}
	return best
}

func (st *StreamState) leastLoadedAll(tiebreak uint64) PID {
	best := PID(0)
	for p := 1; p < st.numParts; p++ {
		if st.load[p] < st.load[best] {
			best = PID(p)
		}
	}
	// Deterministic tiebreak among equally loaded partitions so the result
	// does not depend on iteration quirks. Counting pass + indexed rescan
	// instead of materializing the tie list: this runs on every fresh-fresh
	// edge, so it must not allocate.
	ties := 0
	for p := 0; p < st.numParts; p++ {
		if st.load[p] == st.load[best] {
			ties++
		}
	}
	if ties > 1 {
		k := int(tiebreak % uint64(ties))
		for p := 0; p < st.numParts; p++ {
			if st.load[p] == st.load[best] {
				if k == 0 {
					return PID(p)
				}
				k--
			}
		}
	}
	return best
}

func (st *StreamState) assignGreedy(e graph.Edge) PID {
	sv, dv := st.vert(e.Src), st.vert(e.Dst)
	rs, rd := sv.replicas, dv.replicas
	// Intersection: least-loaded partition holding both endpoints. The scan
	// walks rs in order with a strict < comparison, which reproduces the
	// historical materialize-then-leastLoaded result (first qualifying
	// partition wins ties) without the per-edge intersection slice — on a
	// warm stream almost every edge takes this path, so it must not
	// allocate.
	both := PID(-1)
	for _, p := range rs {
		if dv.has(p) && (both < 0 || st.load[p] < st.load[both]) {
			both = p
		}
	}
	if both >= 0 {
		return st.commit(sv, dv, both)
	}
	if len(rs) > 0 && len(rd) > 0 {
		// Cut the vertex whose replicas live on more-loaded partitions:
		// choose least loaded among the union, scanning rs then rd exactly
		// as the historical concatenated slice did.
		best := rs[0]
		for _, p := range rs[1:] {
			if st.load[p] < st.load[best] {
				best = p
			}
		}
		for _, p := range rd {
			if st.load[p] < st.load[best] {
				best = p
			}
		}
		return st.commit(sv, dv, best)
	}
	if len(rs) > 0 {
		return st.commit(sv, dv, st.leastLoaded(rs))
	}
	if len(rd) > 0 {
		return st.commit(sv, dv, st.leastLoaded(rd))
	}
	return st.commit(sv, dv, st.leastLoadedAll(rng.Combine2(uint64(e.Src), uint64(e.Dst))))
}

func (st *StreamState) assignHDRF(e graph.Edge) PID {
	sv, dv := st.vert(e.Src), st.vert(e.Dst)
	// Partial degrees: count the current edge first, so a first-seen
	// endpoint has degree 1 and θ is always well defined.
	sv.deg++
	dv.deg++
	degS, degD := sv.deg, dv.deg
	// Normalized "partial degrees" θ: the lower-degree endpoint should be
	// kept whole; the higher-degree one is cheap to replicate.
	thetaS := degS / (degS + degD)
	thetaD := 1 - thetaS

	var bestP PID
	bestScore := -1.0
	spread := st.maxLoad - st.minLoadVal()
	if spread == 0 {
		spread = 1
	}
	for p := 0; p < st.numParts; p++ {
		pid := PID(p)
		score := 0.0
		if sv.has(pid) {
			score += 1 + thetaD // g(s): replica present, weighted by other side's θ
		}
		if dv.has(pid) {
			score += 1 + thetaS
		}
		score += st.lambda * (st.maxLoad - st.load[p]) / spread
		if score > bestScore {
			bestScore = score
			bestP = pid
		}
	}
	return st.commit(sv, dv, bestP)
}

// assignHybrid applies the PowerLyra rule on the in-degree observed so
// far: while a destination looks low-degree its in-edges are grouped by
// destination; once its observed in-degree crosses the threshold, further
// in-edges are spread by source hash.
func (st *StreamState) assignHybrid(e graph.Edge) PID {
	dv := st.vert(e.Dst)
	dv.inDeg++
	if dv.inDeg > st.threshold {
		return PID(rng.Mix64(uint64(e.Src)) % uint64(st.numParts))
	}
	return PID(rng.Mix64(uint64(e.Dst)) % uint64(st.numParts))
}

func (st *StreamState) minLoadVal() float64 {
	m := st.load[0]
	for _, l := range st.load[1:] {
		if l < m {
			m = l
		}
	}
	return m
}

// streamPartition is the shared one-shot Partition of the streaming
// strategies: fresh state, one pass, block at a time — a block-backed
// graph streams through its compressed tier without ever materializing
// the dense edge list (chunked assignment is exactly equivalent to a
// single pass; see AssignEdges).
func streamPartition(r Resumable, g *graph.Graph, numParts int) ([]PID, error) {
	st, err := r.NewStream(numParts)
	if err != nil {
		return nil, err
	}
	out := make([]PID, g.NumEdges())
	if err := g.ForEachEdgeBlock(func(start int, edges []graph.Edge) error {
		st.AssignEdges(edges, out[start:start+len(edges)])
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// greedyStrategy implements PowerGraph's greedy vertex-cut heuristic:
// prefer a partition that already holds both endpoints, then one that holds
// either endpoint (breaking ties by load), then the least-loaded partition.
type greedyStrategy struct{}

// Greedy returns the PowerGraph-style greedy streaming strategy.
func Greedy() Strategy { return greedyStrategy{} }

func (greedyStrategy) Name() string { return "Greedy" }

func (greedyStrategy) NewStream(numParts int) (*StreamState, error) {
	return newStreamState(streamGreedy, numParts)
}

func (s greedyStrategy) Partition(g *graph.Graph, numParts int) ([]PID, error) {
	return streamPartition(s, g, numParts)
}

// hdrfStrategy implements High-Degree Replicated First (Petroni et al.):
// like greedy, but when scoring partitions it prefers to cut the endpoint
// with the higher partial degree observed in the stream, plus an explicit
// load-balance term weighted by lambda.
type hdrfStrategy struct {
	lambda float64
}

// HDRF returns the High-Degree-Replicated-First streaming strategy with
// balance weight lambda (1.0 is the authors' default).
func HDRF(lambda float64) Strategy { return hdrfStrategy{lambda: lambda} }

func (hdrfStrategy) Name() string { return "HDRF" }

// Key distinguishes lambda variants in caches: the balance weight changes
// the assignment, so two HDRF instances must not share cached artifacts.
func (h hdrfStrategy) Key() string { return fmt.Sprintf("HDRF:%g", h.lambda) }

func (h hdrfStrategy) NewStream(numParts int) (*StreamState, error) {
	st, err := newStreamState(streamHDRF, numParts)
	if err != nil {
		return nil, err
	}
	st.lambda = h.lambda
	return st, nil
}

func (h hdrfStrategy) Partition(g *graph.Graph, numParts int) ([]PID, error) {
	return streamPartition(h, g, numParts)
}
