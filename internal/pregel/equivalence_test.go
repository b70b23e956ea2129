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
// order, same replica counts.
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
	for _, pg := range []*PartitionedGraph{a, b} {
		if err := checkReplicas(pg); err != nil {
			return err
		}
	}
	return nil
}

// checkReplicas requires pg's ReplicaCounts to equal replicaCountsRef over
// pg's mirror tables, and TotalMirrors to equal their sum.
func checkReplicas(pg *PartitionedGraph) error {
	want := replicaCountsRef(pg.G.NumVertices(), pg.Parts)
	if !slices.Equal(pg.ReplicaCounts(), want) {
		return fmt.Errorf("replica counts differ from the serial count")
	}
	var sum int64
	for _, c := range want {
		sum += int64(c)
	}
	if got := pg.TotalMirrors(); got != sum {
		return fmt.Errorf("TotalMirrors() = %d, the serial count sums to %d", got, sum)
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
					setGOMAXPROCS(t, par)
					got, err := buildFrom(g, assign, numParts, BuildOptions{})
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
// original construction. The assignments are literals, never validated by
// partition.NewAssignment, so the rejection is the build's own.
func TestSortScatterRejectsBadInput(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if _, err := NewPartitionedGraphFromAssignment(&partition.Assignment{G: g, NumParts: 2, PIDs: []partition.PID{0, 5}}, BuildOptions{}); err == nil {
		t.Error("out-of-range PID in second shard should error")
	}
	setGOMAXPROCS(t, 8)
	if _, err := NewPartitionedGraphFromAssignment(&partition.Assignment{G: g, NumParts: 2, PIDs: []partition.PID{-1, 0}}, BuildOptions{}); err == nil {
		t.Error("negative PID should error")
	}
}
