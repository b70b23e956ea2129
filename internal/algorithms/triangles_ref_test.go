package algorithms

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/par"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/rng"
	"cutfit/internal/testutil"
)

// triangleCountRef is the implementation TriangleCount replaced, kept as
// the oracle for its counts and for every RunStats field: per-call neighbor
// lists, canonical edges chosen through two edge-pair hash maps, a serial
// AssignOrder walk and a full two-pointer merge per canonical edge. Its one
// departure from the original is that tombstoned slots are skipped (the
// original indexed past the partitions' live edge lists and panicked).
func triangleCountRef(pg *pregel.PartitionedGraph) ([]int64, *pregel.RunStats, error) {
	g := pg.G
	nv := g.NumVertices()
	numParts := pg.NumParts

	nbr := make([][]int32, nv)
	for v := 0; v < nv; v++ {
		nbr[v] = g.UndirectedNeighbors(int32(v))
	}

	edges := g.Edges()
	canonical := make([]bool, len(edges))
	type pair struct{ a, b graph.VertexID }
	chosen := make(map[pair]struct{}, len(edges))
	has := make(map[pair]struct{}, len(edges))
	for i, e := range edges {
		if g.EdgeAlive(i) {
			has[pair{e.Src, e.Dst}] = struct{}{}
		}
	}
	for i, e := range edges {
		if e.Src == e.Dst || !g.EdgeAlive(i) {
			continue
		}
		u, v := e.Src, e.Dst
		if u > v {
			u, v = v, u
		}
		key := pair{u, v}
		if _, done := chosen[key]; done {
			continue
		}
		if e.Src < e.Dst {
			canonical[i] = true
			chosen[key] = struct{}{}
			continue
		}
		if _, fwd := has[pair{u, v}]; !fwd {
			canonical[i] = true
			chosen[key] = struct{}{}
		}
	}
	canonicalLocal := make([][]bool, numParts)
	cursor := make([]int, numParts)
	for p := 0; p < numParts; p++ {
		canonicalLocal[p] = make([]bool, pg.Parts[p].NumEdges())
	}
	for i, p := range pg.AssignOrder() {
		if !g.EdgeAlive(i) {
			continue
		}
		canonicalLocal[p][cursor[p]] = canonical[i]
		cursor[p]++
	}

	ss := pregel.SuperstepStats{
		Superstep:      1,
		ActiveVertices: int64(nv),
		ComputePerPart: make([]float64, numParts),
		ApplyPerShard:  make([]float64, 1),
	}
	reps := pg.ReplicaCounts()
	for v := int32(0); v < int32(nv); v++ {
		m := int64(reps[v])
		ss.BroadcastMsgs += m
		ss.BroadcastBytes += m * (16 + 4*int64(len(nbr[v])))
	}

	partCounts := make([][]int64, numParts)
	scannedPerPart := make([]int64, numParts)
	if err := par.ForEach(context.Background(), par.DefaultParallelism(), numParts, func(p int) {
		part := pg.Parts[p]
		counts := make([]int64, part.NumLocalVertices())
		var cost float64
		for j := 0; j < part.NumEdges(); j++ {
			if !canonicalLocal[p][j] {
				continue
			}
			sL, dL := part.EdgeAt(j)
			a, b := nbr[part.LocalVerts[sL]], nbr[part.LocalVerts[dL]]
			common := int64(intersectSortedCount(a, b))
			counts[sL] += common
			counts[dL] += common
			cost += hashSetOpUnits * float64(len(a)+len(b))
			scannedPerPart[p]++
		}
		partCounts[p] = counts
		ss.ComputePerPart[p] = cost
	}); err != nil {
		return nil, nil, err
	}
	for _, s := range scannedPerPart {
		ss.EdgesScanned += s
	}

	total := make([]int64, nv)
	for p := 0; p < numParts; p++ {
		part := pg.Parts[p]
		for l, c := range partCounts[p] {
			if c == 0 {
				continue
			}
			total[part.LocalVerts[l]] += c
			ss.ReduceMsgs++
			ss.ReduceBytes += 12
		}
	}
	var applyUnits float64
	for _, m := range reps {
		applyUnits += float64(m)
		if m > 1 {
			applyUnits += cutVertexReductionUnits
		}
	}
	ss.ApplyPerShard[0] = applyUnits
	ss.MsgsEmitted = ss.ReduceMsgs
	for v := range total {
		total[v] /= 2
	}
	return total, &pregel.RunStats{Supersteps: []pregel.SuperstepStats{ss}, Converged: true}, nil
}

// intersectSortedCount returns |a ∩ b| for sorted, duplicate-free slices by
// a two-pointer merge: the reference's intersection.
func intersectSortedCount(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// multigraphEdges exercises every way a pair can occur: duplicates of one
// orientation, both orientations in either first-seen order, a reverse-only
// pair (first occurrence is the canonical one), self loops, and enough
// shared neighbors that the triangles overlap.
func multigraphEdges() []graph.Edge {
	return []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0}, // duplicate forward, then reverse
		{Src: 2, Dst: 1}, {Src: 2, Dst: 1}, // reverse-only, duplicated
		{Src: 2, Dst: 0}, {Src: 0, Dst: 2}, // reverse seen before forward
		{Src: 3, Dst: 3}, {Src: 0, Dst: 0}, // self loops
		{Src: 3, Dst: 0}, {Src: 3, Dst: 1}, {Src: 3, Dst: 2}, // reverse-only fan: K4 on 0..3
		{Src: 4, Dst: 3}, {Src: 2, Dst: 4}, {Src: 4, Dst: 2}, // pendant triangle 2-3-4
		{Src: 5, Dst: 6}, {Src: 6, Dst: 5}, {Src: 6, Dst: 5}, // detached reciprocal pair
		{Src: 9, Dst: 0}, {Src: 9, Dst: 1}, {Src: 9, Dst: 2}, {Src: 9, Dst: 3}, {Src: 9, Dst: 4},
	}
}

// tombstoned retracts every k-th live edge of g.
func tombstoned(t *testing.T, g *graph.Graph, k int) *graph.Graph {
	t.Helper()
	var batch []graph.Edge
	for i, e := range g.Edges() {
		if i%k == 0 {
			batch = append(batch, e)
		}
	}
	ng, d, err := g.Shrink(batch)
	if err != nil {
		t.Fatal(err)
	}
	if d.Compacted || ng.NumDeadEdges() == 0 {
		t.Fatalf("retraction left %d tombstones (compacted=%v)", ng.NumDeadEdges(), d.Compacted)
	}
	return ng
}

// triangleTestGraphs is the kernel's equivalence matrix: skewed, planar
// and uniform degree shapes, the pair-occurrence corner cases, a graph
// carrying tombstones and one whose edges live in the block tier.
func triangleTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rmat := must(gen.RMAT(gen.DefaultRMAT(9, 8, 3)))
	return map[string]*graph.Graph{
		"rmat":                  rmat,
		"road":                  must(gen.Road(gen.RoadConfig{Rows: 24, Cols: 24, EdgeProb: 0.4, DiagProb: 0.3, Fragments: 3, Seed: 5})),
		"random":                must(gen.ErdosRenyi(300, 2400, 7)),
		"multigraph":            graph.FromEdges(multigraphEdges()),
		"tombstoned":            tombstoned(t, must(gen.RMAT(gen.DefaultRMAT(9, 8, 4))), 7),
		"multigraph-tombstoned": tombstoned(t, graph.FromEdges(append(multigraphEdges(), multigraphEdges()...)), 5),
		"block":                 must(gen.RMATBlocks(gen.DefaultRMAT(9, 8, 3), 256)),
	}
}

// TestTriangleCountMatchesReference: on every strategy and graph shape the
// kernel's counts and every SuperstepStats field equal the retained
// reference implementation's, whatever the worker count.
func TestTriangleCountMatchesReference(t *testing.T) {
	ctx := context.Background()
	for name, g := range triangleTestGraphs(t) {
		wantTotal := g.TotalTriangles()
		for _, s := range partition.Extended() {
			for _, numParts := range []int{1, 5, 16} {
				a, err := partition.Assign(g, s, numParts)
				if err != nil {
					t.Fatal(err)
				}
				var first *pregel.RunStats
				for _, workers := range []int{1, 4} {
					testutil.SetGOMAXPROCS(t, workers)
					pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// The kernel runs before the reference, whose Edges() call
					// densifies a block-backed graph, and once more after it, on
					// the cached plan and a pooled mark set.
					counts, stats, err := TriangleCount(ctx, pg)
					if err != nil {
						t.Fatalf("%s/%s/%d: %v", name, s.Name(), numParts, err)
					}
					wantCounts, wantStats, err := triangleCountRef(pg)
					if err != nil {
						t.Fatal(err)
					}
					again, againStats, err := TriangleCount(ctx, pg)
					if err != nil {
						t.Fatalf("%s/%s/%d: %v", name, s.Name(), numParts, err)
					}
					if !reflect.DeepEqual(counts, wantCounts) || !reflect.DeepEqual(again, wantCounts) {
						t.Fatalf("%s/%s/%d workers=%d: counts differ from the reference", name, s.Name(), numParts, workers)
					}
					if !reflect.DeepEqual(stats, wantStats) || !reflect.DeepEqual(againStats, wantStats) {
						t.Fatalf("%s/%s/%d workers=%d: stats\n got %+v\nthen %+v\nwant %+v", name, s.Name(), numParts, workers, stats, againStats, wantStats)
					}
					if total := TotalTriangles(counts); total != wantTotal {
						t.Fatalf("%s/%s/%d: %d triangles, graph oracle %d", name, s.Name(), numParts, total, wantTotal)
					}
					if first == nil {
						first = wantStats
					} else if !reflect.DeepEqual(first, wantStats) {
						t.Fatalf("%s/%s/%d: reference stats depend on the worker count", name, s.Name(), numParts)
					}
				}
			}
		}
	}
}

// cancelledAfterFirstCheck is a context whose Err is nil on its first call
// and context.Canceled on every later one: a caller that gives up between
// TriangleCount's entry check and its partition fan-out.
type cancelledAfterFirstCheck struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelledAfterFirstCheck) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestTriangleCountStopsWhenCancelledMidRun: cancellation after the entry
// check still stops the run — no partition starts — and is the error.
func TestTriangleCountStopsWhenCancelledMidRun(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	pg := mustPartition(t, g, partition.EdgePartition2D(), 16)
	ctx := &cancelledAfterFirstCheck{Context: context.Background()}
	if _, _, err := TriangleCount(ctx, pg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestTriangleCountConcurrentRuns: simultaneous first runs on one topology
// elect one plan build and all return the reference result.
func TestTriangleCountConcurrentRuns(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	pg := mustPartition(t, g, partition.EdgePartition2D(), 16)
	want, wantStats, err := triangleCountRef(pg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	errs := make(chan error, runs)
	for r := 0; r < runs; r++ {
		go func() {
			got, stats, err := TriangleCount(context.Background(), pg)
			if err == nil && !(reflect.DeepEqual(got, want) && reflect.DeepEqual(stats, wantStats)) {
				err = errors.New("concurrent run differs from the reference")
			}
			errs <- err
		}()
	}
	for r := 0; r < runs; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// sortedSet draws n distinct values below span, ascending.
func sortedSet(r *rng.Rand, n, span int) []int32 {
	if n > span {
		n = span
	}
	seen := make(map[int32]bool, n)
	for len(seen) < n {
		seen[int32(r.Intn(span))] = true
	}
	out := make([]int32, 0, n)
	for v := int32(0); v < int32(span); v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestIntersectionsAgree: the kernel's mark-and-probe and the reference's
// merge count the same intersection on empty, disjoint, nested and
// hub-versus-leaf list pairs, and a cleared mark set is all zero.
func TestIntersectionsAgree(t *testing.T) {
	const span = 2000
	check := func(a, b []int32) {
		t.Helper()
		want := 0
		in := make(map[int32]bool, len(a))
		for _, v := range a {
			in[v] = true
		}
		for _, v := range b {
			if in[v] {
				want++
			}
		}
		marks := takeMarks(span)
		marks.set(a)
		probed := marks.count(b)
		marks.clear(a)
		for w, word := range marks.words {
			if word != 0 {
				t.Fatalf("mark word %d not cleared", w)
			}
		}
		markPool.Put(marks)
		if merged := intersectSortedCount(a, b); probed != want || merged != want {
			t.Fatalf("probe counted %d, merge %d, want %d (|a|=%d |b|=%d)", probed, merged, want, len(a), len(b))
		}
	}
	r := rng.New(99)
	evens, odds := make([]int32, 0, span/2), make([]int32, 0, span/2)
	for v := int32(0); v < span; v += 2 {
		evens, odds = append(evens, v), append(odds, v+1)
	}
	check(nil, nil)
	check(nil, evens)
	check(evens, odds)             // disjoint, interleaved
	check(evens[:10], evens[500:]) // disjoint, separated
	check(evens, evens)            // identical
	check(evens[100:140], evens)   // nested
	check([]int32{span - 1}, odds) // last element
	check([]int32{0}, odds)        // below everything
	for i := 0; i < 300; i++ {
		hub := sortedSet(r, 1+r.Intn(1200), span)
		leaf := sortedSet(r, r.Intn(40), span)
		check(hub, leaf)
		check(sortedSet(r, r.Intn(200), span), sortedSet(r, r.Intn(200), span))
	}
}
