package pregel

import (
	"fmt"
	"slices"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// checkEquivalent compares two partitioned representations structurally:
// same partitions, same local vertex tables, same local edges in the same
// order, same mirror routing.
func checkEquivalent(a, b *PartitionedGraph) error {
	if a.NumParts != b.NumParts {
		return fmt.Errorf("NumParts %d != %d", a.NumParts, b.NumParts)
	}
	for p := range a.Parts {
		pa, pb := a.Parts[p], b.Parts[p]
		if len(pa.LocalVerts) != len(pb.LocalVerts) {
			return fmt.Errorf("partition %d: %d local verts != %d", p, len(pa.LocalVerts), len(pb.LocalVerts))
		}
		for l := range pa.LocalVerts {
			if pa.LocalVerts[l] != pb.LocalVerts[l] {
				return fmt.Errorf("partition %d: LocalVerts[%d] %d != %d", p, l, pa.LocalVerts[l], pb.LocalVerts[l])
			}
		}
		if pa.NumEdges() != pb.NumEdges() {
			return fmt.Errorf("partition %d: %d edges != %d", p, pa.NumEdges(), pb.NumEdges())
		}
		for j := range pa.edges {
			if pa.edges[j] != pb.edges[j] {
				return fmt.Errorf("partition %d: edge %d %v != %v", p, j, pa.edges[j], pb.edges[j])
			}
		}
		// The frontier index is derived lazily on every construction path
		// (full build, hash-map oracle, delta patch, snapshot restore);
		// forcing both builds here proves equivalent topologies derive
		// identical indexes.
		pa.ensureFrontierIndex()
		pb.ensureFrontierIndex()
		if !slices.Equal(pa.srcOff, pb.srcOff) || !slices.Equal(pa.srcPos, pb.srcPos) {
			return fmt.Errorf("partition %d: source frontier index differs", p)
		}
		if !slices.Equal(pa.dstOff, pb.dstOff) || !slices.Equal(pa.dstPos, pb.dstPos) {
			return fmt.Errorf("partition %d: destination frontier index differs", p)
		}
	}
	// The routing CSR is built lazily too: force both, and hold each to the
	// serial reference construction over its own mirror tables.
	for _, pg := range []*PartitionedGraph{a, b} {
		if err := checkRouting(pg); err != nil {
			return err
		}
	}
	return nil
}

// checkRouting builds pg's routing CSR through an accessor and requires it
// to equal routingCSR over pg's mirror tables.
func checkRouting(pg *PartitionedGraph) error {
	pg.TotalMirrors()
	if !pg.RoutingBuilt() {
		return fmt.Errorf("TotalMirrors left the routing CSR unbuilt")
	}
	offs, refs := routingCSR(pg.G.NumVertices(), pg.Parts)
	if !slices.Equal(pg.routingOffsets, offs) {
		return fmt.Errorf("routing offsets differ from the reference construction")
	}
	if !slices.Equal(pg.routingRefs, refs) {
		return fmt.Errorf("routing refs differ from the reference construction")
	}
	return nil
}

// TestSortScatterMatchesMapsBuild proves the sort/scatter construction is
// bit-for-bit equivalent to the original hash-map construction across
// strategies, partition counts and worker counts.
func TestSortScatterMatchesMapsBuild(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		g := randomGraph(seed, 80, 600)
		for _, s := range partition.Extended() {
			for _, numParts := range []int{1, 5, 32} {
				assign, err := s.Partition(g, numParts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := newPartitionedGraphMaps(g, assign, numParts)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 4} {
					got, err := NewPartitionedGraphOpts(g, assign, numParts, BuildOptions{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					if err := checkEquivalent(want, got); err != nil {
						t.Fatalf("seed %d strategy %s parts %d par %d: %v", seed, s.Name(), numParts, par, err)
					}
				}
			}
		}
	}
}

// TestSortScatterRejectsBadInput mirrors the error contract of the
// original construction.
func TestSortScatterRejectsBadInput(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if _, err := NewPartitionedGraphOpts(g, []partition.PID{0, 5}, 2, BuildOptions{}); err == nil {
		t.Error("out-of-range PID in second shard should error")
	}
	if _, err := NewPartitionedGraphOpts(g, []partition.PID{-1, 0}, 2, BuildOptions{Parallelism: 8}); err == nil {
		t.Error("negative PID should error")
	}
}
