package graph

// DegreeStats summarizes the degree distribution of the graph.
type DegreeStats struct {
	MeanOut, MeanIn   float64
	MaxOut, MaxIn     int32
	MedianOut         int32
	ZeroIn, ZeroOut   int
	UndirectedDegrees []int32 // per dense vertex, simple undirected degree
}

// Degrees computes summary degree statistics.
func (g *Graph) Degrees() DegreeStats {
	g.buildDegrees()
	n := len(g.verts)
	st := DegreeStats{}
	if n == 0 {
		return st
	}
	var sumOut, sumIn int64
	outs := make([]int32, n)
	for i := 0; i < n; i++ {
		sumOut += int64(g.outDeg[i])
		sumIn += int64(g.inDeg[i])
		if g.outDeg[i] > st.MaxOut {
			st.MaxOut = g.outDeg[i]
		}
		if g.inDeg[i] > st.MaxIn {
			st.MaxIn = g.inDeg[i]
		}
		if g.outDeg[i] == 0 {
			st.ZeroOut++
		}
		if g.inDeg[i] == 0 {
			st.ZeroIn++
		}
		outs[i] = g.outDeg[i]
	}
	st.MeanOut = float64(sumOut) / float64(n)
	st.MeanIn = float64(sumIn) / float64(n)
	sortInt32s(outs, func(a, b int32) bool { return a < b })
	st.MedianOut = outs[n/2]
	st.UndirectedDegrees = make([]int32, n)
	for i := int32(0); i < int32(n); i++ {
		st.UndirectedDegrees[i] = int32(len(g.UndirectedNeighbors(i)))
	}
	return st
}
