package pregel

import (
	"testing"

	"cutfit/internal/datasets"
	"cutfit/internal/partition"
)

// BenchmarkPartitionBuild compares the retained hash-map construction
// (the pre-refactor baseline) against the sort/scatter construction on the
// youtube analog at the paper's coarse granularity of 128 partitions.
// Run with -benchmem: the headline is both ns/op and allocs/op.
func BenchmarkPartitionBuild(b *testing.B) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		b.Fatal(err)
	}
	const numParts = 128
	a, err := partition.Assign(g, partition.EdgePartition2D(), numParts)
	if err != nil {
		b.Fatal(err)
	}
	assign := a.PIDs
	// Warm the graph's cached views so both variants measure construction,
	// not first-touch index building.
	g.EdgeEndpointIndices()

	b.Run("maps", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newPartitionedGraphMaps(g, assign, numParts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sortscatter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewPartitionedGraphFromAssignment(a, BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sortscatter-1worker", func(b *testing.B) {
		setGOMAXPROCS(b, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewPartitionedGraphFromAssignment(a, BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
