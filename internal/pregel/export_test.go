package pregel

// IndexFrontiers builds every partition's frontier index, as a sparse scan
// or a seeded start's trim would.
func IndexFrontiers(pg *PartitionedGraph) {
	for _, part := range pg.Parts {
		part.ensureFrontierIndex()
	}
}
