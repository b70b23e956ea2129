package algorithms

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// lineageRuns runs the four served Pregel algorithms on pg and returns
// their values and statistics.
func lineageRuns(t *testing.T, pg *pregel.PartitionedGraph) (vals []any, stats []*pregel.RunStats) {
	t.Helper()
	ctx := context.Background()
	keep := func(v any, st *pregel.RunStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		vals, stats = append(vals, v), append(stats, st)
	}
	pr, st, err := PageRank(ctx, pg, 6, DefaultResetProb)
	keep(pr, st, err)
	cc, st, err := ConnectedComponents(ctx, pg, 0)
	keep(cc, st, err)
	dpr, st, err := DynamicPageRank(ctx, pg, 1e-3, DefaultResetProb, 0)
	keep(dpr, st, err)
	sp, st, err := HopDistances(ctx, pg, []graph.VertexID{pg.G.Vertices()[0]}, 0)
	keep(sp, st, err)
	return vals, stats
}

// TestRevivedScratchBitIdentical: a topology derived by ApplyDelta runs its
// first pagerank, cc, dynamicpr and sssp on the scratch its parent parked —
// shaped for another vertex count, other partition sizes, and full of the
// parent's values — and must return exactly the values and RunStats of a run
// on a cold topology with fresh buffers, for a grown child, a shrunk child
// and a child whose new vertices shifted every dense index.
func TestRevivedScratchBitIdentical(t *testing.T) {
	const parts = 6
	s := partition.EdgePartition2D()
	r := rand.New(rand.NewSource(11))
	// Vertex IDs are multiples of 3, so a step can add IDs in the middle.
	base := make([]graph.Edge, 1500)
	for i := range base {
		base[i] = graph.Edge{Src: graph.VertexID(3 * r.Intn(200)), Dst: graph.VertexID(3 * r.Intn(200))}
	}
	steps := []struct {
		name string
		step func(g *graph.Graph) (*graph.Graph, graph.Delta)
	}{
		{"grown", func(g *graph.Graph) (*graph.Graph, graph.Delta) {
			suffix := make([]graph.Edge, 120)
			for i := range suffix {
				suffix[i] = graph.Edge{Src: graph.VertexID(3 * r.Intn(200)), Dst: graph.VertexID(700 + i)}
			}
			return g.Grow(suffix)
		}},
		{"shrunk", func(g *graph.Graph) (*graph.Graph, graph.Delta) {
			ng, d, err := g.Shrink(g.Edges()[100:300])
			if err != nil {
				t.Fatal(err)
			}
			return ng, d
		}},
		{"remapped", func(g *graph.Graph) (*graph.Graph, graph.Delta) {
			suffix := make([]graph.Edge, 90)
			for i := range suffix {
				suffix[i] = graph.Edge{Src: graph.VertexID(3*r.Intn(200) + 1), Dst: graph.VertexID(3 * r.Intn(200))}
			}
			return g.Grow(suffix)
		}},
	}

	g := graph.FromEdges(base)
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	lineageRuns(t, pg) // park one scratch of each program type

	// The steps chain: every child is derived from the previous one and
	// inherits the scratches it left behind.
	for _, sc := range steps {
		ng, d := sc.step(pg.G)
		if d.Compacted {
			t.Fatalf("%s: step compacted, nothing to patch", sc.name)
		}
		na, err := a.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		remap, err := graph.RemapVertices(d.OldVerts, ng)
		if err != nil {
			t.Fatal(err)
		}
		if (sc.name == "remapped") != (remap != nil) {
			t.Fatalf("%s: remap nil=%v", sc.name, remap == nil)
		}
		child, err := pg.ApplyDelta(na, remap)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, gotStats := lineageRuns(t, child)

		coldA, err := partition.Assign(ng, s, parts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := pregel.NewPartitionedGraphFromAssignment(coldA, pregel.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantVals, wantStats := lineageRuns(t, cold)
		for i, alg := range []string{"pagerank", "cc", "dynamicpr", "sssp"} {
			if !reflect.DeepEqual(gotVals[i], wantVals[i]) {
				t.Fatalf("%s child, %s: values on a revived scratch differ from a fresh one", sc.name, alg)
			}
			if !reflect.DeepEqual(gotStats[i], wantStats[i]) {
				t.Fatalf("%s child, %s: RunStats on a revived scratch differ from a fresh one:\n got %+v\nwant %+v", sc.name, alg, gotStats[i], wantStats[i])
			}
		}
		pg, a = child, na
	}
}

// beyondGraph sums the shares pg lists beyond its graph's own: the
// assignment's PID slice, which no run changes, and the lineage's scratch
// pool, priced at what is parked in it.
func beyondGraph(pg *pregel.PartitionedGraph) int64 {
	own := map[any]bool{}
	for _, s := range pg.G.Shares() {
		own[s.Key] = true
	}
	var b int64
	for _, s := range pg.Shares() {
		if !own[s.Key] {
			b += s.Bytes
		}
	}
	return b
}

// TestOnlyPricedScratchesPark: on a ReuseBuffers topology a program whose
// messages are maps leaves the lineage pool as it found it, while
// pagerank, dynamicpr, cc and shortest paths at every vector width each park
// one scratch that Shares prices at its slots' full size — which, their
// values and messages being pointer-free, is all the scratch keeps alive.
func TestOnlyPricedScratchesPark(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Assign(g, partition.EdgePartition2D(), 6)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	slots := int64(g.NumVertices()) // masters plus mirrors
	for _, part := range pg.Parts {
		slots += int64(len(part.LocalVerts))
	}
	// The bitsets beside the slots: changed vertices, frontiers, edge masks,
	// each rounded up to a word per partition.
	bitsets := (slots+int64(g.NumEdges()))/8 + int64(8*(2*pg.NumParts+1))

	before := beyondGraph(pg)
	if _, _, err := pregel.Run(ctx, pg, mapVotes(3)); err != nil {
		t.Fatal(err)
	}
	if got := beyondGraph(pg); got != before {
		t.Fatalf("a map-message program left %d bytes in the scratch pool", got-before)
	}

	const f64 = 8
	type served struct {
		name     string
		slotSize int64 // value + message + has-flag
		run      func() error
	}
	programs := []served{
		{"pagerank", f64 + f64 + 1, func() error { _, _, err := PageRank(ctx, pg, 3, DefaultResetProb); return err }},
		{"dynamicpr", int64(unsafe.Sizeof(PRState{})) + f64 + 1, func() error { _, _, err := DynamicPageRank(ctx, pg, 1e-3, DefaultResetProb, 0); return err }},
		{"cc", 2*int64(unsafe.Sizeof(graph.VertexID(0))) + 1, func() error { _, _, err := ConnectedComponents(ctx, pg, 0); return err }},
	}
	for _, width := range []int{1, 2, 4, 8, 16, 32, 64} {
		lm := spreadLandmarks(g, width)
		programs = append(programs, served{fmt.Sprintf("sssp/%d", width), int64(2*4*width + 1), func() error {
			_, _, err := HopDistances(ctx, pg, lm, 0)
			return err
		}})
	}
	for _, p := range programs {
		before := beyondGraph(pg)
		if err := p.run(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		grew := beyondGraph(pg) - before
		if lo, hi := slots*p.slotSize, slots*p.slotSize+bitsets; grew < lo || grew > hi {
			t.Fatalf("%s: pool grew by %d bytes, a parked scratch of %d slots × %d B weighs %d to %d", p.name, grew, slots, p.slotSize, lo, hi)
		}
		// A second run revives what the first parked.
		if err := p.run(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if again := beyondGraph(pg) - before; again != grew {
			t.Fatalf("%s: pool holds %d bytes after a second run, %d after the first", p.name, again, grew)
		}
	}
}

// votes counts how often a neighbour's label was heard.
type votes map[graph.VertexID]int64

// mapVotes is a pointer-carrying program: label propagation by majority
// vote, every message a map. Ties go to the smaller label.
func mapVotes(rounds int) pregel.Program[graph.VertexID, votes] {
	return pregel.Program[graph.VertexID, votes]{
		Init: func(id graph.VertexID) graph.VertexID { return id },
		VProg: func(_ graph.VertexID, val graph.VertexID, msg votes) graph.VertexID {
			best, most := val, int64(-1)
			for label, n := range msg {
				if n > most || (n == most && label < best) {
					best, most = label, n
				}
			}
			return best
		},
		SendMsg: func(t *pregel.Triplet[graph.VertexID], emit pregel.Emitter[votes]) {
			emit.ToDst(votes{t.SrcVal: 1})
			emit.ToSrc(votes{t.DstVal: 1})
		},
		MergeMsg: func(a, b votes) votes {
			out := make(votes, len(a)+len(b))
			for l, n := range a {
				out[l] += n
			}
			for l, n := range b {
				out[l] += n
			}
			return out
		},
		MaxIterations:   rounds,
		ActiveDirection: pregel.AllEdges,
		MsgBytes:        func(m votes) int { return 16 + 12*len(m) },
	}
}
