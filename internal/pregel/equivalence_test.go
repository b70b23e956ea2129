package pregel

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// checkEquivalent compares two partitioned representations structurally:
// the same partitions with the same live views — local vertex tables, local
// edges in the same order (Partition.live) — and the same replica counts,
// and each partition's dead, ghost and frontier-index state is what its own
// span gives (checkSpan).
func checkEquivalent(a, b *PartitionedGraph) error {
	if a.NumParts != b.NumParts {
		return fmt.Errorf("NumParts %d != %d", a.NumParts, b.NumParts)
	}
	for p := range a.Parts {
		pa, pb := a.Parts[p], b.Parts[p]
		lva, ea := pa.Live()
		lvb, eb := pb.Live()
		if len(lva) != len(lvb) {
			return fmt.Errorf("partition %d: %d local verts != %d", p, len(lva), len(lvb))
		}
		for l := range lva {
			if lva[l] != lvb[l] {
				return fmt.Errorf("partition %d: LocalVerts[%d] %d != %d", p, l, lva[l], lvb[l])
			}
		}
		if len(ea) != len(eb) || pa.NumEdges() != len(ea) || pb.NumEdges() != len(eb) {
			return fmt.Errorf("partition %d: %d edges != %d", p, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				return fmt.Errorf("partition %d: edge %d %v != %v", p, j, ea[j], eb[j])
			}
		}
		for _, part := range []*Partition{pa, pb} {
			if err := checkSpan(part); err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
		}
	}
	for _, pg := range []*PartitionedGraph{a, b} {
		if err := checkReplicas(pg); err != nil {
			return err
		}
	}
	return nil
}

// checkSpan requires part's bookkeeping to match its span: the dead and
// ghost counts are the popcounts of their sets, a ghost is exactly a
// mirror no live slot references, and the frontier index — whether built
// by a sparse scan, carried by an append or shared by a retraction — is the
// counting sort of the span, as buildEdgeIndex makes it on a fresh copy.
// It builds the index when nobody has.
func checkSpan(part *Partition) error {
	nDead, nGhost := 0, 0
	for _, w := range part.dead {
		nDead += bits.OnesCount64(w)
	}
	for _, w := range part.ghost {
		nGhost += bits.OnesCount64(w)
	}
	if nDead != part.nDead || nGhost != part.nGhost {
		return fmt.Errorf("%d dead and %d ghost bits, counted %d and %d", nDead, nGhost, part.nDead, part.nGhost)
	}
	if part.dead != nil && len(part.dead) != (len(part.edges)+63)/64 {
		return fmt.Errorf("dead set of %d words over %d slots", len(part.dead), len(part.edges))
	}
	ref := make([]bool, len(part.LocalVerts))
	for j, e := range part.edges {
		if !part.Dead(j) {
			ref[e.Src], ref[e.Dst] = true, true
		}
	}
	for l, r := range ref {
		if r == part.Ghost(l) {
			return fmt.Errorf("local vertex %d: referenced=%v but ghost=%v", l, r, part.Ghost(l))
		}
	}
	part.ensureFrontierIndex()
	fresh := &Partition{LocalVerts: part.LocalVerts, edgeSpan: &edgeSpan{edges: part.edges}}
	buildEdgeIndex(fresh)
	if !slices.Equal(part.srcOff, fresh.srcOff) || !slices.Equal(part.srcPos, fresh.srcPos) {
		return fmt.Errorf("source frontier index differs from the counting sort of the span")
	}
	if !slices.Equal(part.dstOff, fresh.dstOff) || !slices.Equal(part.dstPos, fresh.dstPos) {
		return fmt.Errorf("destination frontier index differs from the counting sort of the span")
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
