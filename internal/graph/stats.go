package graph

import (
	"cutfit/internal/rng"
)

// Stats is the structural characterization of a graph, matching the columns
// of Table 1 in the paper.
type Stats struct {
	Vertices    int     // distinct vertices
	Edges       int     // directed edges
	SymmetryPct float64 // percentage of edges that are reciprocated
	ZeroInPct   float64 // percentage of vertices with no incoming edges
	ZeroOutPct  float64 // percentage of vertices with no outgoing edges
	Triangles   int64   // total triangles in the undirected projection
	Components  int     // weakly connected components
	SCCs        int     // strongly connected components
	Diameter    int     // longest shortest path; see DiameterInfinite
	// DiameterInfinite is true when the graph has more than one weakly
	// connected component, in which case Diameter is meaningless and the
	// paper reports "∞".
	DiameterInfinite bool
}

// Characterize computes the full Table 1 statistics. diameterSamples bounds
// the BFS sweeps used by the diameter approximation (0 picks a default).
// It is deterministic for a given seed.
func (g *Graph) Characterize(diameterSamples int, seed uint64) Stats {
	s := Stats{
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		SymmetryPct: g.SymmetryPct(),
	}
	zin, zout := g.ZeroDegreePct()
	s.ZeroInPct, s.ZeroOutPct = zin, zout
	s.Triangles = g.TotalTriangles()
	_, s.Components = g.ConnectedComponents()
	s.SCCs = g.CountSCCs()
	if s.Components > 1 {
		s.DiameterInfinite = true
	} else {
		s.Diameter = g.ApproxDiameter(diameterSamples, seed)
	}
	return s
}

// SymmetryPct returns the percentage (0–100) of directed edges (u,v) for
// which the reverse edge (v,u) also exists. Self loops count as symmetric.
// An empty graph reports 100. Tombstoned edges neither count nor
// reciprocate. Computed once per generation and cached: the advisor asks on
// every request.
func (g *Graph) SymmetryPct() float64 {
	g.symOnce.do(func() { g.symPct = g.computeSymmetryPct() })
	return g.symPct
}

// computeSymmetryPct merges each vertex's out-row against its in-row (both
// sorted): an out-edge u→v is reciprocated exactly when v is among u's
// in-neighbors. Every parallel copy on the out side counts (the measure is
// per directed edge); the in side only answers membership.
func (g *Graph) computeSymmetryPct() float64 {
	live := g.NumLiveEdges()
	if live == 0 {
		return 100
	}
	out, in := g.outCSR(), g.inCSR()
	recip := 0
	for v := int32(0); v < int32(len(g.verts)); v++ {
		from := in.neighbors(v)
		j := 0
		for _, d := range out.neighbors(v) {
			for j < len(from) && from[j] < d {
				j++
			}
			if j == len(from) {
				break
			}
			if from[j] == d {
				recip++
			}
		}
	}
	return 100 * float64(recip) / float64(live)
}

// ZeroDegreePct returns the percentages (0–100) of vertices with zero
// in-degree and zero out-degree respectively.
func (g *Graph) ZeroDegreePct() (zeroIn, zeroOut float64) {
	g.buildDegrees()
	n := len(g.verts)
	if n == 0 {
		return 0, 0
	}
	zi, zo := 0, 0
	for i := 0; i < n; i++ {
		if g.inDeg[i] == 0 {
			zi++
		}
		if g.outDeg[i] == 0 {
			zo++
		}
	}
	return 100 * float64(zi) / float64(n), 100 * float64(zo) / float64(n)
}

// TrianglesPerVertex returns, for each dense vertex index, the number of
// triangles through that vertex in the undirected projection (each triangle
// contributes 1 to each of its three corners). This matches the semantics
// of GraphX's TriangleCount.
func (g *Graph) TrianglesPerVertex() []int64 {
	c := g.undirCSR()
	n := g.NumVertices()
	counts := make([]int64, n)
	// Forward algorithm: process vertices in (degree, index) order; A(v)
	// holds the already-seen neighbors of v that precede it in the order.
	// Every triangle is found exactly once, at its last vertex in order.
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		deg[i] = int32(len(c.neighbors(int32(i))))
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Sort by (degree, index) ascending.
	sortInt32s(order, func(a, b int32) bool {
		if deg[a] != deg[b] {
			return deg[a] < deg[b]
		}
		return a < b
	})
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	// A(v): sorted-by-insertion list of preceding neighbors.
	a := make([][]int32, n)
	for _, v := range order {
		for _, w := range c.neighbors(v) {
			if rank[w] <= rank[v] {
				continue // only edges to later vertices
			}
			// Intersect A(v) and A(w): both are insertion-ordered by rank,
			// which is a consistent total order, so a merge works.
			av, aw := a[v], a[w]
			i, j := 0, 0
			for i < len(av) && j < len(aw) {
				ri, rj := rank[av[i]], rank[aw[j]]
				switch {
				case ri == rj:
					counts[v]++
					counts[w]++
					counts[av[i]]++
					i++
					j++
				case ri < rj:
					i++
				default:
					j++
				}
			}
			a[w] = append(a[w], v)
		}
	}
	return counts
}

// TotalTriangles returns the total number of triangles in the undirected
// projection of the graph.
func (g *Graph) TotalTriangles() int64 {
	per := g.TrianglesPerVertex()
	var sum int64
	for _, c := range per {
		sum += c
	}
	return sum / 3
}

// ConnectedComponents computes weakly connected components using union-find.
// It returns a label per dense vertex index — the minimum VertexID in the
// component, matching GraphX's convention — and the number of components.
func (g *Graph) ConnectedComponents() (labels []VertexID, count int) {
	g.buildVertexIndex()
	n := len(g.verts)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	g.mustEdgeBlocks(func(start int, edges []Edge, _ []float64) {
		for i, e := range edges {
			if g.numDead != 0 && !g.EdgeAlive(start+i) {
				continue
			}
			union(g.denseIndexOf(e.Src), g.denseIndexOf(e.Dst))
		}
	})
	// Minimum vertex ID per root. Because verts is sorted and roots are
	// always the smaller index under our union rule, the root's own ID is
	// the minimum ID in the component.
	labels = make([]VertexID, n)
	roots := make(map[int32]struct{})
	for i := int32(0); i < int32(n); i++ {
		r := find(i)
		labels[i] = g.verts[r]
		roots[r] = struct{}{}
	}
	return labels, len(roots)
}

// CountSCCs returns the number of strongly connected components, using an
// iterative Tarjan algorithm (safe for deep graphs such as road networks).
func (g *Graph) CountSCCs() int {
	out := g.outCSR()
	n := g.NumVertices()
	const unvisited = -1
	indexOf := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = unvisited
	}
	var stack []int32
	var next int32
	count := 0

	type frame struct {
		v  int32
		ni int // next neighbor position to visit
	}
	var callStack []frame

	for start := int32(0); start < int32(n); start++ {
		if indexOf[start] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: start})
		indexOf[start] = next
		lowlink[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			nb := out.neighbors(f.v)
			advanced := false
			for f.ni < len(nb) {
				w := nb[f.ni]
				f.ni++
				if indexOf[w] == unvisited {
					indexOf[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && indexOf[w] < lowlink[f.v] {
					lowlink[f.v] = indexOf[w]
				}
			}
			if advanced {
				continue
			}
			// Done with f.v.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == indexOf[v] {
				count++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					if w == v {
						break
					}
				}
			}
		}
	}
	return count
}

// BFSUndirected runs a breadth-first search from dense vertex index start on
// the undirected projection and returns the distance slice (-1 means
// unreachable) and the farthest reached vertex with its distance.
func (g *Graph) BFSUndirected(start int32) (dist []int32, far int32, ecc int32) {
	c := g.undirCSR()
	n := g.NumVertices()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, 1024)
	dist[start] = 0
	queue = append(queue, start)
	far, ecc = start, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range c.neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				if dist[w] > ecc {
					ecc = dist[w]
					far = w
				}
				queue = append(queue, w)
			}
		}
	}
	return dist, far, ecc
}

// ExactDiameter computes the exact diameter of the undirected projection by
// running a BFS from every vertex. It is O(V·E) and intended for tests on
// small graphs; it returns -1 for a disconnected or empty graph.
func (g *Graph) ExactDiameter() int {
	n := g.NumVertices()
	if n == 0 {
		return -1
	}
	var diam int32
	for v := int32(0); v < int32(n); v++ {
		dist, _, ecc := g.BFSUndirected(v)
		for _, d := range dist {
			if d == -1 {
				return -1
			}
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return int(diam)
}

// ApproxDiameter estimates the diameter of the undirected projection using
// repeated double-sweep BFS from random starts. The result is a lower bound
// that is exact on trees and very tight on small-world graphs. samples <= 0
// selects a default of 8 sweeps. The estimate is deterministic for a seed.
func (g *Graph) ApproxDiameter(samples int, seed uint64) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	if samples <= 0 {
		samples = 8
	}
	r := rng.New(seed)
	var best int32
	for s := 0; s < samples; s++ {
		start := int32(r.Intn(n))
		_, far, _ := g.BFSUndirected(start)
		_, _, ecc := g.BFSUndirected(far)
		if ecc > best {
			best = ecc
		}
	}
	return int(best)
}

// sortInt32s sorts xs with the provided less function. Local insertion/heap
// hybrid to avoid pulling interface-based sort into hot paths.
func sortInt32s(xs []int32, less func(a, b int32) bool) {
	// Simple bottom-up merge sort: stable, no recursion, O(n log n).
	n := len(xs)
	buf := make([]int32, n)
	for width := 1; width < n; width *= 2 {
		for i := 0; i < n; i += 2 * width {
			mid := i + width
			if mid > n {
				mid = n
			}
			end := i + 2*width
			if end > n {
				end = n
			}
			merge(xs, buf, i, mid, end, less)
		}
		copy(xs, buf[:n])
	}
}

func merge(src, dst []int32, lo, mid, hi int, less func(a, b int32) bool) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		switch {
		case i < mid && (j >= hi || !less(src[j], src[i])):
			dst[k] = src[i]
			i++
		default:
			dst[k] = src[j]
			j++
		}
	}
}
