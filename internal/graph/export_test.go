package graph

// OutRow is row i of g's out-adjacency CSR, for the external tests that
// check it against a reference.
func OutRow(g *Graph, i int32) []int32 { return g.outCSR().neighbors(i) }

// DegreesBuilt reports whether g's degree view (OutDegrees, InDegrees) has
// been built, for the tests that guard against building it.
func DegreesBuilt(g *Graph) bool { return g.degOnce.built() }
