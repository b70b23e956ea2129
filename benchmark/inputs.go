package main

import (
	"strconv"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
)

// genGraph is the only source of input graphs: Graph500-style R-MAT at the
// given scale, eight edges per vertex, seeded by the run's -seed.
func genGraph(scale int, seed uint64) (*graph.Graph, error) {
	return gen.RMAT(gen.DefaultRMAT(scale, edgeFactor, seed))
}

// snapText renders edges as the SNAP-style text the system ingests: one
// "src<TAB>dst" line per edge under a comment header. The daemon and
// LoadEdgeList only ever see this text, never the generator's graph object.
// (Graph.WriteEdgeList writes the same format through Fprintf, five times
// slower; this runs in every set-up, which is timed.)
func snapText(edges []graph.Edge) []byte {
	buf := make([]byte, 0, 16*len(edges)+64)
	buf = append(buf, "# cutfit benchmark input: "...)
	buf = strconv.AppendInt(buf, int64(len(edges)), 10)
	buf = append(buf, " edges\n"...)
	for _, e := range edges {
		buf = strconv.AppendInt(buf, int64(e.Src), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(e.Dst), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// streamBatches splits the edge list of the stream-update graph: the first
// three quarters seed the session, the rest is cut into batches of 0.5 % of
// the whole, appended in order (and retracted four cycles later).
func streamBatches(edges []graph.Edge) (seed []graph.Edge, batches [][]graph.Edge) {
	n := len(edges)
	cut := n * 3 / 4
	size := n / 200
	for lo := cut; lo+size <= n; lo += size {
		batches = append(batches, edges[lo:lo+size])
	}
	return edges[:cut], batches
}
