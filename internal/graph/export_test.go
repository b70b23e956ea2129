package graph

// OutRow is row i of g's out-adjacency CSR, for the external tests that
// check it against a reference.
func OutRow(g *Graph, i int32) []int32 { return g.outCSR().neighbors(i) }
