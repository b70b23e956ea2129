package pregel

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// checkStampInvariant fails unless a carries the invariant Answer documents:
// every vertex whose value is not its own initial value has a live neighbour
// with the same value and a strictly smaller stamp, and no stamp is past the
// clock.
func checkStampInvariant(t *testing.T, a *Answer[int64]) {
	t.Helper()
	g := a.G
	verts := g.Vertices()
	supported := make([]bool, len(verts))
	src, dst := g.EdgeEndpointIndices()
	for i := range src {
		if !g.EdgeAlive(i) {
			continue
		}
		u, v := src[i], dst[i]
		if a.Vals[u] != a.Vals[v] {
			t.Fatalf("edge %d: endpoint values %d and %d differ in a converged answer", i, a.Vals[u], a.Vals[v])
		}
		switch {
		case a.Stamps[u] < a.Stamps[v]:
			supported[v] = true
		case a.Stamps[v] < a.Stamps[u]:
			supported[u] = true
		}
	}
	for v, id := range verts {
		if a.Stamps[v] > a.Clock {
			t.Fatalf("vertex %d stamped %d, past the clock %d", id, a.Stamps[v], a.Clock)
		}
		if a.Vals[v] != int64(id) && !supported[v] {
			t.Fatalf("vertex %d holds %d (stamp %d) with no earlier-stamped neighbour holding it", id, a.Vals[v], a.Stamps[v])
		}
	}
}

// seededStep advances (pg, parent) by one generation step the way the store
// does — Extend, RemapVertices, ApplyDelta — and runs the cc program seeded
// from parent on the result, checking values against a cold run and
// union-find and the stamp invariant.
func seededStep(t *testing.T, pg *PartitionedGraph, a *partition.Assignment, s partition.Strategy, parent *Answer[int64], ng *graph.Graph, d graph.Delta) (*PartitionedGraph, *partition.Assignment, *Answer[int64], *RunStats) {
	t.Helper()
	na, err := a.Extend(ng, s)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := graph.RemapVertices(d.OldVerts, ng)
	if err != nil {
		t.Fatal(err)
	}
	npg, err := pg.ApplyDelta(na, remap)
	if err != nil {
		t.Fatal(err)
	}
	prog := ccTestProgram(ScanAuto)
	start, err := SeedLabels(npg, parent, d.OldLen, remap, prog.Init)
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := RunStamped(context.Background(), npg, prog, start)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := Run(context.Background(), npg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ans.Vals, cold) {
		t.Fatalf("seeded values differ from the cold run's")
	}
	want, _ := ng.ConnectedComponents()
	for v, l := range want {
		if ans.Vals[v] != int64(l) {
			t.Fatalf("vertex %d: seeded label %d, union-find %d", ng.Vertices()[v], ans.Vals[v], l)
		}
	}
	if !stats.Converged {
		t.Fatal("seeded run did not converge")
	}
	if want := parent.Clock + uint32(stats.NumSupersteps()); ans.Clock != want {
		t.Fatalf("clock %d after %d supersteps from %d", ans.Clock, stats.NumSupersteps(), parent.Clock)
	}
	checkStampInvariant(t, ans)
	return npg, na, ans, stats
}

// TestSeededChain: twelve generations of random appends, retractions and
// window slides (new vertices below, between and above the old ones), each
// seeded from the one before, on one and on many partitions.
func TestSeededChain(t *testing.T) {
	for _, numParts := range []int{1, 7} {
		r := rand.New(rand.NewSource(int64(numParts)))
		edge := func(nv int) graph.Edge {
			return graph.Edge{Src: graph.VertexID(100 + r.Intn(nv)), Dst: graph.VertexID(100 + r.Intn(nv))}
		}
		base := make([]graph.Edge, 260)
		for i := range base {
			base[i] = edge(300)
		}
		g := graph.FromEdges(base)
		s := partition.EdgePartition2D()
		a, err := partition.Assign(g, s, numParts)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 3, ReuseBuffers: true})
		if err != nil {
			t.Fatal(err)
		}
		ans, stats, err := RunStamped(context.Background(), pg, ccTestProgram(ScanAuto), nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, plainStats, _ := Run(context.Background(), pg, ccTestProgram(ScanAuto))
		if !slices.Equal(ans.Vals, plain) || stats.NumSupersteps() != plainStats.NumSupersteps() {
			t.Fatal("recording stamps changed a cold run")
		}
		checkStampInvariant(t, ans)
		coldSteps := stats.NumSupersteps()

		for step := 0; step < 12; step++ {
			var ng *graph.Graph
			var d graph.Delta
			switch step % 3 {
			case 0:
				batch := []graph.Edge{edge(300), edge(300), {Src: graph.VertexID(step), Dst: 150}, {Src: 250, Dst: graph.VertexID(1000 + step)}}
				ng, d = g.Grow(batch)
			case 1:
				var batch []graph.Edge
				for i := 0; len(batch) < 9 && i < g.NumEdges(); i += 1 + r.Intn(40) {
					if g.EdgeAlive(i) {
						batch = append(batch, g.EdgeAt(i))
					}
				}
				ng, d, err = g.Shrink(batch)
			default:
				ng, d, err = g.SlideWindow([]graph.Edge{edge(300), edge(300), edge(300)}, nil, 3*step)
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Compacted {
				t.Fatalf("step %d compacted: the chain is meant to stay below the threshold", step)
			}
			pg, a, ans, stats = seededStep(t, pg, a, s, ans, ng, d)
			g = ng
			if stats.NumSupersteps() > 0 && stats.Supersteps[0].BroadcastMsgs != pg.TotalMirrors() {
				t.Fatalf("first seeded superstep broadcast %d values, want every mirror (%d)", stats.Supersteps[0].BroadcastMsgs, pg.TotalMirrors())
			}
		}
		if ans.Clock <= uint32(coldSteps) {
			t.Fatalf("clock %d did not advance past the cold run's %d", ans.Clock, coldSteps)
		}
	}
}

// TestSeedRefusesExhaustedClock: a parent whose clock reached the limit is
// not continued.
func TestSeedRefusesExhaustedClock(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 1, Dst: 2}})
	pg, err := NewPartitionedGraph(g, []partition.PID{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parent := &Answer[int64]{G: g, Vals: []int64{1, 1}, Stamps: []uint32{0, 1}, Clock: maxSeedClock}
	if _, err := SeedLabels(pg, parent, 1, nil, ccTestProgram(ScanAuto).Init); !errors.Is(err, ErrStampClock) {
		t.Fatalf("SeedLabels at clock %d: %v, want ErrStampClock", parent.Clock, err)
	}
	parent.Clock--
	if _, err := SeedLabels(pg, parent, 1, nil, ccTestProgram(ScanAuto).Init); err != nil {
		t.Fatalf("SeedLabels one below the limit: %v", err)
	}
}

// TestSeededRunStopsWhenCancelled is TestLocalRunStopsWhenCancelled for a
// seeded start: the first (mirror-filling) superstep starts no partition once
// the context is done.
func TestSeededRunStopsWhenCancelled(t *testing.T) {
	const numParts, edgesPerPart, scanWorkers = 64, 50, 4
	edges := make([]graph.Edge, numParts*edgesPerPart)
	assign := make([]partition.PID, len(edges))
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 97), Dst: graph.VertexID(i % 89)}
		assign[i] = partition.PID(i / edgesPerPart)
	}
	g := graph.FromEdges(edges)
	pg, err := NewPartitionedGraphOpts(g, assign, numParts, BuildOptions{Parallelism: scanWorkers})
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex its own label and on the frontier: each edge has something
	// to send.
	nv := g.NumVertices()
	start := &Start[int64]{Vals: make([]int64, nv), Stamps: make([]uint32, nv), Active: make([]uint64, (nv+63)/64), Clock: 5}
	for v, id := range g.Vertices() {
		start.Vals[v] = int64(id)
		start.Active[v>>6] |= 1 << (uint(v) & 63)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scanned atomic.Int64
	prog := ccTestProgram(ScanAuto)
	prog.SendMsg = func(*Triplet[int64], Emitter[int64]) {
		cancel()
		scanned.Add(1)
	}
	if _, _, err := RunStamped(ctx, pg, prog, start); !errors.Is(err, context.Canceled) {
		t.Fatalf("seeded run under a context cancelled mid-superstep: %v, want context.Canceled", err)
	}
	if got := scanned.Load(); got == 0 || got > scanWorkers*edgesPerPart {
		t.Fatalf("%d edges scanned after the cancel at the first: want at most %d (one partition per goroutine) of %d",
			got, scanWorkers*edgesPerPart, len(edges))
	}
}

// TestSeededAppendActivatesOnlyDisagreeingEdges: a batch whose every edge
// joins two vertices already in one component changes no label, so the
// seeded start has an empty frontier and the run takes no superstep. A batch
// edge joining two components puts exactly its two endpoints on the frontier.
func TestSeededAppendActivatesOnlyDisagreeingEdges(t *testing.T) {
	var base []graph.Edge
	for v := graph.VertexID(0); v < 40; v++ {
		if v != 19 {
			base = append(base, graph.Edge{Src: v, Dst: v + 1}) // paths 0..19 and 20..40
		}
	}
	g := graph.FromEdges(base)
	s := partition.EdgePartition2D()
	a, err := partition.Assign(g, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := RunStamped(context.Background(), pg, ccTestProgram(ScanAuto), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		batch  []graph.Edge
		active []int32 // dense indices; the vertex IDs are 0..40
	}{
		{[]graph.Edge{{Src: 0, Dst: 19}, {Src: 12, Dst: 3}, {Src: 40, Dst: 25}, {Src: 30, Dst: 30}}, nil},
		{[]graph.Edge{{Src: 5, Dst: 7}, {Src: 33, Dst: 2}, {Src: 21, Dst: 39}}, []int32{2, 33}},
	} {
		ng, d := g.Grow(tc.batch)
		npg, _, _, stats := seededStep(t, pg, a, s, ans, ng, d)
		start, err := SeedLabels(npg, ans, d.OldLen, nil, ccTestProgram(ScanAuto).Init)
		if err != nil {
			t.Fatal(err)
		}
		var active []int32
		for v := range int32(ng.NumVertices()) {
			if start.Active[v>>6]>>(v&63)&1 != 0 {
				active = append(active, v)
			}
		}
		if !slices.Equal(active, tc.active) {
			t.Fatalf("batch %v: seeded frontier %v, want %v", tc.batch, active, tc.active)
		}
		if len(tc.active) == 0 && stats.NumSupersteps() != 0 {
			t.Fatalf("batch %v changes no label, but the seeded run took %d supersteps", tc.batch, stats.NumSupersteps())
		}
	}
}

// seedLabelsSerial is the trim SeedLabels replaced, kept as its reference: a
// serial worklist over every suspect, with neighbours read off g's live edge
// list rather than the topology. The reset set does not depend on the order
// the worklist takes, so its Start must equal SeedLabels' exactly.
func seedLabelsSerial(g *graph.Graph, parent *Answer[int64], oldLen int, remap []int32, init func(graph.VertexID) int64) *Start[int64] {
	verts := g.Vertices()
	nv := len(verts)
	st := &Start[int64]{Vals: make([]int64, nv), Stamps: make([]uint32, nv), Active: make([]uint64, (nv+63)/64), Clock: parent.Clock}
	vals, stamps := st.Vals, st.Stamps
	for v, id := range verts {
		vals[v], stamps[v] = init(id), parent.Clock
	}
	for old := range parent.Vals {
		v := old
		if remap != nil {
			v = int(remap[old])
		}
		vals[v], stamps[v] = parent.Vals[old], parent.Stamps[old]
	}
	activate := func(v int32) { st.Active[v>>6] |= 1 << (uint32(v) & 63) }
	src, dst := g.EdgeEndpointIndices()
	adj := make([][]int32, nv)
	var suspects []int32
	for i := range src {
		a, b := src[i], dst[i]
		switch {
		case g.EdgeAlive(i):
			adj[a], adj[b] = append(adj[a], b), append(adj[b], a)
			if i >= oldLen && vals[a] != vals[b] {
				activate(a)
				activate(b)
			}
		case i < oldLen && parent.G.EdgeAlive(i) && stamps[a] < stamps[b]:
			suspects = append(suspects, b)
		case i < oldLen && parent.G.EdgeAlive(i) && stamps[b] < stamps[a]:
			suspects = append(suspects, a)
		}
	}
	for len(suspects) > 0 {
		v := suspects[len(suspects)-1]
		suspects = suspects[:len(suspects)-1]
		val, stamp, own := vals[v], stamps[v], init(verts[v])
		if val == own || slices.ContainsFunc(adj[v], func(u int32) bool { return vals[u] == val && stamps[u] < stamp }) {
			continue
		}
		vals[v], stamps[v] = own, parent.Clock
		activate(v)
		for _, u := range adj[v] {
			if vals[u] == val && stamps[u] > stamp {
				suspects = append(suspects, u)
			}
		}
	}
	return st
}

// edgeRule is a strategy that places every edge by its endpoints alone, so
// extending an assignment replays its prefix exactly.
type edgeRule func(e graph.Edge, numParts int) partition.PID

func (edgeRule) Name() string { return "rule" }

func (r edgeRule) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	edges := g.Edges()
	pids := make([]partition.PID, len(edges))
	for i, e := range edges {
		pids[i] = r(e, numParts)
	}
	return pids, nil
}

// TestSeedLabelsTrimMatchesSerial: the Start SeedLabels returns — values,
// stamps and frontier — is the same at Parallelism 1 and 4 and equals the
// serial reference's, on the retraction shapes of the root package's
// TestSeededRetractionShapes over 1, 4 and 64 partitions (most of them empty
// at 64), and on a suspect mirrored only in the first and the last partition:
// after the retraction, and after the retracted edges come back.
func TestSeedLabelsTrimMatchesSerial(t *testing.T) {
	E := func(a, b int) graph.Edge { return graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b)} }
	path := func(lo, hi int) (es []graph.Edge) {
		for v := lo; v < hi; v++ {
			if v%2 == 0 {
				es = append(es, E(v, v+1))
			} else {
				es = append(es, E(v+1, v))
			}
		}
		return es
	}
	clique := func(lo, n int) (es []graph.Edge) {
		for a := lo; a < lo+n; a++ {
			for b := a + 1; b < lo+n; b++ {
				es = append(es, E(b, a))
			}
		}
		return es
	}
	star := func(hub, lo, hi int) (es []graph.Edge) {
		for v := lo; v <= hi; v++ {
			es = append(es, E(hub, v))
		}
		return es
	}
	// Cut from 10, vertex 11 is a suspect whose edges left are one in the
	// first partition and one in the last; the rest of the path fills
	// partitions 1 to 3, and those between them and the last stay empty.
	firstLast := edgeRule(func(e graph.Edge, numParts int) partition.PID {
		lo, hi := min(e.Src, e.Dst), max(e.Src, e.Dst)
		switch {
		case lo == 11 && hi == 12:
			return 0
		case lo == 11 && hi == 30:
			return partition.PID(numParts - 1)
		}
		return partition.PID(1 + lo%3)
	})
	type shape struct {
		name           string
		edges, retract []graph.Edge
	}
	shapes := []shape{
		{"path cut in the middle", path(0, 40), []graph.Edge{E(20, 21)}},
		{"ring cut once", append(path(0, 40), E(40, 0)), []graph.Edge{E(20, 21)}},
		{"ring cut twice", append(path(0, 40), E(40, 0)), []graph.Edge{E(20, 21), E(6, 7)}},
		{"star losing hub edges", star(100, 1, 40), []graph.Edge{E(100, 1), E(100, 2), E(100, 17), E(100, 40)}},
		{"two cliques and a bridge", append(append(clique(0, 6), clique(10, 6)...), E(12, 3)), []graph.Edge{E(12, 3)}},
		{"one of two parallel edges", append(path(0, 30), E(10, 11), E(14, 15)), []graph.Edge{E(10, 11), E(14, 15)}},
		{"self-loops", append(path(0, 30), E(5, 5), E(5, 5), E(0, 0), E(29, 29)), []graph.Edge{E(5, 5), E(0, 0), E(6, 5)}},
		{"minimum vertex cut off", path(0, 40), []graph.Edge{E(0, 1)}},
		{"minimum vertex cut off a ring", append(path(0, 40), E(40, 0)), []graph.Edge{E(0, 1), E(40, 0)}},
		{"pendant endpoint left isolated", append(path(0, 30), E(50, 10)), []graph.Edge{E(50, 10)}},
		{"tree under the cut", append(append(path(0, 20), star(10, 21, 30)...), star(25, 31, 40)...), []graph.Edge{E(10, 25)}},
	}
	init := ccTestProgram(ScanAuto).Init
	for _, run := range []struct {
		s      partition.Strategy
		parts  []int
		shapes []shape
	}{
		{partition.EdgePartition2D(), []int{1, 4, 64}, shapes},
		{firstLast, []int{8, 64}, []shape{{"suspect in the first and the last partition", append(path(0, 20), E(11, 30)), []graph.Edge{E(10, 11)}}}},
	} {
		for _, sh := range run.shapes {
			for _, parts := range run.parts {
				g := graph.FromEdges(sh.edges)
				a, err := partition.Assign(g, run.s, parts)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{Parallelism: 4})
				if err != nil {
					t.Fatal(err)
				}
				ans, _, err := RunStamped(context.Background(), pg, ccTestProgram(ScanAuto), nil)
				if err != nil {
					t.Fatal(err)
				}
				cut, dCut, err := g.Shrink(sh.retract)
				if err != nil {
					t.Fatal(err)
				}
				back, dBack := cut.Grow(sh.retract)
				for step, d := range []graph.Delta{dCut, dBack} {
					ng := []*graph.Graph{cut, back}[step]
					remap, err := graph.RemapVertices(d.OldVerts, ng)
					if err != nil {
						t.Fatal(err)
					}
					na, err := a.Extend(ng, run.s)
					if err != nil {
						t.Fatal(err)
					}
					npg, err := pg.ApplyDelta(na, remap)
					if err != nil {
						t.Fatal(err)
					}
					want := seedLabelsSerial(ng, ans, d.OldLen, remap, init)
					for _, par := range []int{1, 4} {
						npg.Parallelism = par
						got, err := SeedLabels(npg, ans, d.OldLen, remap, init)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.Vals, want.Vals) || !slices.Equal(got.Stamps, want.Stamps) ||
							!slices.Equal(got.Active, want.Active) || got.Clock != want.Clock {
							t.Fatalf("%s/%d parts, step %d, parallelism %d: seeded start differs from the serial trim's", sh.name, parts, step, par)
						}
					}
					if ans, _, err = RunStamped(context.Background(), npg, ccTestProgram(ScanAuto), want); err != nil {
						t.Fatal(err)
					}
					g, a, pg = ng, na, npg
				}
			}
		}
	}
}
