package gen

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

// Dedup returns a new graph with duplicate directed edges removed,
// preserving first-occurrence order.
func Dedup(g *graph.Graph) *graph.Graph {
	type pair struct{ a, b graph.VertexID }
	seen := make(map[pair]struct{}, g.NumEdges())
	out := make([]graph.Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		k := pair{e.Src, e.Dst}
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, e)
	}
	return graph.FromEdges(out)
}

// DropSelfLoops returns a new graph without self loops.
func DropSelfLoops(g *graph.Graph) *graph.Graph {
	out := make([]graph.Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		if e.Src != e.Dst {
			out = append(out, e)
		}
	}
	return graph.FromEdges(out)
}

// Symmetrize adds reverse edges to randomly chosen unreciprocated edges
// until at least targetPct percent of edges are reciprocated (as measured
// by graph.SymmetryPct). targetPct of 100 reciprocates everything.
// The input graph should be deduplicated first.
func Symmetrize(g *graph.Graph, targetPct float64, seed uint64) (*graph.Graph, error) {
	if targetPct < 0 || targetPct > 100 {
		return nil, fmt.Errorf("gen: symmetrize target %g%% out of [0,100]", targetPct)
	}
	type pair struct{ a, b graph.VertexID }
	set := make(map[pair]struct{}, g.NumEdges())
	edges := make([]graph.Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		k := pair{e.Src, e.Dst}
		if _, ok := set[k]; ok {
			continue
		}
		set[k] = struct{}{}
		edges = append(edges, e)
	}
	recip := 0
	var unrecip []graph.Edge
	for _, e := range edges {
		if e.Src == e.Dst {
			recip++
			continue
		}
		if _, ok := set[pair{e.Dst, e.Src}]; ok {
			recip++
		} else {
			unrecip = append(unrecip, e)
		}
	}
	r := rng.New(seed)
	r.Shuffle(len(unrecip), func(i, j int) { unrecip[i], unrecip[j] = unrecip[j], unrecip[i] })
	total := len(edges)
	// Adding the reverse of an unreciprocated edge converts one
	// unreciprocated edge into two reciprocated ones and grows the total
	// by one.
	for i := 0; i < len(unrecip); i++ {
		if float64(recip) >= targetPct/100*float64(total) {
			break
		}
		e := unrecip[i]
		rev := pair{e.Dst, e.Src}
		if _, ok := set[rev]; ok {
			continue // became reciprocated via an earlier addition
		}
		set[rev] = struct{}{}
		edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src})
		recip += 2
		total++
	}
	if float64(recip) < targetPct/100*float64(total)-1e-9 && targetPct > 0 {
		// All edges reciprocated but target still unmet can only happen
		// with an empty graph; treat as satisfied.
		if len(edges) > 0 && float64(recip) < targetPct/100*float64(total)-1 {
			return nil, fmt.Errorf("gen: symmetrize could not reach %g%% (got %g%%)",
				targetPct, 100*float64(recip)/float64(total))
		}
	}
	return graph.FromEdges(edges), nil
}

// Relabel applies a random permutation to the vertex IDs, destroying any
// locality encoded in consecutive identifiers. Used by ablations that
// separate a partitioner's hashing behavior from ID-locality effects.
func Relabel(g *graph.Graph, seed uint64) *graph.Graph {
	verts := g.Vertices()
	r := rng.New(seed)
	perm := r.Perm(len(verts))
	remap := make(map[graph.VertexID]graph.VertexID, len(verts))
	for i, v := range verts {
		remap[v] = verts[perm[i]]
	}
	out := make([]graph.Edge, len(g.Edges()))
	for i, e := range g.Edges() {
		out[i] = graph.Edge{Src: remap[e.Src], Dst: remap[e.Dst]}
	}
	return graph.FromEdges(out)
}

// Connect links every non-giant weakly connected component to the giant
// component by adding a reciprocated edge pair from the component's
// lowest-ID vertex to the giant's lowest-ID vertex, producing a single
// connected graph (used for analogs of single-component datasets such as
// Pocek and Orkut).
func Connect(g *graph.Graph) *graph.Graph {
	labels, count := g.ConnectedComponents()
	if count <= 1 {
		return g
	}
	// Component sizes keyed by label.
	size := map[graph.VertexID]int{}
	for _, l := range labels {
		size[l]++
	}
	var giant graph.VertexID
	best := -1
	for l, n := range size {
		if n > best || (n == best && l < giant) {
			giant = l
			best = n
		}
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	for l := range size {
		if l == giant {
			continue
		}
		// The label is the minimum vertex ID of the component.
		edges = append(edges,
			graph.Edge{Src: l, Dst: giant},
			graph.Edge{Src: giant, Dst: l},
		)
	}
	return graph.FromEdges(edges)
}

// CloseTriangles adds up to count wedge-closing edge pairs: it repeatedly
// picks a random vertex and two of its (undirected) neighbors and connects
// them with a reciprocated edge if absent. This raises the triangle count
// of sparse generated graphs to social-network levels without disturbing
// other structure.
func CloseTriangles(g *graph.Graph, count int, seed uint64) (*graph.Graph, error) {
	if count < 0 {
		return nil, fmt.Errorf("gen: negative triangle-closure count %d", count)
	}
	if count == 0 || g.NumVertices() == 0 {
		return g, nil
	}
	r := rng.New(seed)
	nv := g.NumVertices()
	verts := g.Vertices()
	type pair struct{ a, b graph.VertexID }
	have := make(map[pair]struct{}, g.NumEdges())
	for _, e := range g.Edges() {
		a, b := e.Src, e.Dst
		if a > b {
			a, b = b, a
		}
		have[pair{a, b}] = struct{}{}
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	added := 0
	// Bounded attempts so pathological graphs (stars, cliques) terminate.
	for attempts := 0; added < count && attempts < 20*count; attempts++ {
		v := int32(r.Intn(nv))
		nb := g.UndirectedNeighbors(v)
		if len(nb) < 2 {
			continue
		}
		x := verts[nb[r.Intn(len(nb))]]
		y := verts[nb[r.Intn(len(nb))]]
		if x == y {
			continue
		}
		a, b := x, y
		if a > b {
			a, b = b, a
		}
		if _, ok := have[pair{a, b}]; ok {
			continue
		}
		have[pair{a, b}] = struct{}{}
		edges = append(edges, graph.Edge{Src: x, Dst: y}, graph.Edge{Src: y, Dst: x})
		added++
	}
	return graph.FromEdges(edges), nil
}

// InjectLeavesTarget adds zero-in and zero-out leaf vertices until the
// graph's zero-in-degree and zero-out-degree vertex fractions reach
// approximately the given percentages (existing zero-degree vertices are
// counted; targets already exceeded are left as is). Leaf edges attach
// only to vertices that already have the corresponding degree, so existing
// zero-degree counts are not disturbed.
func InjectLeavesTarget(g *graph.Graph, zeroInPct, zeroOutPct float64, seed uint64) (*graph.Graph, error) {
	if zeroInPct < 0 || zeroInPct >= 100 || zeroOutPct < 0 || zeroOutPct >= 100 {
		return nil, fmt.Errorf("gen: leaf targets (%g%%, %g%%) out of [0,100)", zeroInPct, zeroOutPct)
	}
	if zeroInPct+zeroOutPct >= 100 {
		return nil, fmt.Errorf("gen: leaf targets sum to %g%%, must be < 100", zeroInPct+zeroOutPct)
	}
	verts := g.Vertices()
	v0 := float64(len(verts))
	if v0 == 0 {
		return g, nil
	}
	inDeg := g.InDegrees()
	outDeg := g.OutDegrees()
	var a0, b0 float64 // current zero-in / zero-out counts
	var withIn, withOut []graph.VertexID
	for i, v := range verts {
		if inDeg[i] == 0 {
			a0++
		} else {
			withIn = append(withIn, v)
		}
		if outDeg[i] == 0 {
			b0++
		} else {
			withOut = append(withOut, v)
		}
	}
	ta, tb := zeroInPct/100, zeroOutPct/100
	// Final vertex count V satisfies (a0+zi)/V = ta and (b0+zo)/V = tb with
	// V = v0+zi+zo; take the max of the three implied lower bounds so no
	// target is overshot by construction.
	v := (v0 - a0 - b0) / (1 - ta - tb)
	if ta > 0 && a0/ta > v {
		v = a0 / ta
	}
	if tb > 0 && b0/tb > v {
		v = b0 / tb
	}
	if v < v0 {
		v = v0
	}
	zi := int(ta*v - a0)
	zo := int(tb*v - b0)
	if zi < 0 {
		zi = 0
	}
	if zo < 0 {
		zo = 0
	}
	if zi == 0 && zo == 0 {
		return g, nil
	}
	if len(withIn) == 0 || len(withOut) == 0 {
		return nil, fmt.Errorf("gen: cannot target leaf fractions on a graph with no connected vertices")
	}
	r := rng.New(seed)
	next := int64(verts[len(verts)-1]) + 1
	edges := append([]graph.Edge(nil), g.Edges()...)
	for i := 0; i < zi; i++ {
		// A zero-in leaf points at a vertex that already has in-edges.
		target := withIn[r.Intn(len(withIn))]
		edges = append(edges, graph.Edge{Src: graph.VertexID(next), Dst: target})
		next++
	}
	for i := 0; i < zo; i++ {
		// A zero-out leaf is pointed at by a vertex with out-edges.
		source := withOut[r.Intn(len(withOut))]
		edges = append(edges, graph.Edge{Src: source, Dst: graph.VertexID(next)})
		next++
	}
	return graph.FromEdges(edges), nil
}

// PairSubset samples a fraction of the graph's unordered endpoint pairs
// and keeps every edge whose pair was chosen, preserving reciprocation
// (sampling directed edges independently would destroy symmetry). Used to
// derive follow-jul from follow-dec.
func PairSubset(g *graph.Graph, fraction float64, seed uint64) (*graph.Graph, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("gen: pair subset fraction %g out of (0,1]", fraction)
	}
	type pair struct{ a, b graph.VertexID }
	canon := func(e graph.Edge) pair {
		if e.Src <= e.Dst {
			return pair{e.Src, e.Dst}
		}
		return pair{e.Dst, e.Src}
	}
	seen := map[pair]struct{}{}
	var order []pair
	for _, e := range g.Edges() {
		k := canon(e)
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			order = append(order, k)
		}
	}
	r := rng.New(seed)
	keep := make(map[pair]bool, len(order))
	for _, k := range order {
		keep[k] = r.Float64() < fraction
	}
	out := make([]graph.Edge, 0, int(fraction*float64(g.NumEdges())))
	for _, e := range g.Edges() {
		if keep[canon(e)] {
			out = append(out, e)
		}
	}
	return graph.FromEdges(out), nil
}

// AddFragments appends count small detached components (paths of 2–6
// vertices with both edge orientations), reproducing the many small
// components of sampled social graphs such as socLiveJournal.
func AddFragments(g *graph.Graph, count int, seed uint64) (*graph.Graph, error) {
	if count < 0 {
		return nil, fmt.Errorf("gen: negative fragment count %d", count)
	}
	r := rng.New(seed)
	verts := g.Vertices()
	next := int64(0)
	if len(verts) > 0 {
		next = int64(verts[len(verts)-1]) + 1
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	for f := 0; f < count; f++ {
		length := 2 + r.Intn(5)
		for i := 0; i < length-1; i++ {
			u := graph.VertexID(next + int64(i))
			v := graph.VertexID(next + int64(i) + 1)
			edges = append(edges, graph.Edge{Src: u, Dst: v}, graph.Edge{Src: v, Dst: u})
		}
		next += int64(length)
	}
	return graph.FromEdges(edges), nil
}
