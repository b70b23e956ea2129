package pregel

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// runTrivial executes a one-superstep program with the given value type to
// exercise the scratch pools with distinct [V, M] instantiations.
func runTrivial[V int64 | float64](t *testing.T, pg *PartitionedGraph) {
	t.Helper()
	_, _, err := Run(context.Background(), pg, Program[V, V]{
		Init:          func(id graph.VertexID) V { return 0 },
		VProg:         func(id graph.VertexID, val, msg V) V { return val + msg },
		SendMsg:       func(tr *Triplet[V], emit Emitter[V]) {},
		MergeMsg:      func(a, b V) V { return a + b },
		MaxIterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScratchPoolsKeepDistinctProgramTypes guards the ReuseBuffers contract
// under algorithm alternation: scratches of different program types park in
// separate pools, and a matching run must revive its own prior scratch
// rather than discarding a mismatched one.
func TestScratchPoolsKeepDistinctProgramTypes(t *testing.T) {
	g := randomGraph(21, 40, 200)
	assign, err := partition.RandomVertexCut().Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := buildFrom(g, assign, 4, BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	f64Key := scratchKey[float64, float64]()
	i64Key := scratchKey[int64, int64]()
	if f64Key == i64Key {
		t.Fatalf("distinct program types share scratch key %q", f64Key)
	}
	runTrivial[float64](t, pg)
	runTrivial[int64](t, pg)
	if got := pg.scratch.parked(f64Key); got != 1 {
		t.Fatalf("float64 pool holds %d scratches, want 1", got)
	}
	if got := pg.scratch.parked(i64Key); got != 1 {
		t.Fatalf("int64 pool holds %d scratches, want 1", got)
	}
	f64Scratch := pg.scratch.take(f64Key)
	if f64Scratch == nil {
		t.Fatal("no float64 scratch parked")
	}
	pg.scratch.put(f64Key, f64Scratch, pg.scratchDepth())
	// A third run of the float64 program must revive that exact scratch
	// and park it again, leaving the int64 one untouched.
	runTrivial[float64](t, pg)
	if got := pg.scratch.parked(f64Key); got != 1 {
		t.Fatalf("float64 pool holds %d scratches after revival, want 1", got)
	}
	if s := pg.scratch.take(f64Key); s != f64Scratch {
		t.Fatal("float64 run allocated a new scratch instead of reviving the parked one")
	}
}

// newEngineScratch builds a scratch fitted to pg, as a run that found the
// pool empty would.
func newEngineScratch[V, M any](pg *PartitionedGraph, shards int) *engineScratch[V, M] {
	s := &engineScratch[V, M]{}
	s.fit(pg, shards, true)
	return s
}

// TestScratchPoolBounds checks the per-type depth bound and the distinct
// program type bound: pools never exceed scratchDepth() entries, and types
// beyond maxScratchTypes are not parked at all.
func TestScratchPoolBounds(t *testing.T) {
	g := randomGraph(21, 40, 200)
	assign, err := partition.RandomVertexCut().Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := buildFrom(g, assign, 4, BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	key := scratchKey[float64, float64]()
	depth := pg.scratchDepth()
	for i := 0; i < depth+3; i++ {
		pg.scratch.put(key, newEngineScratch[float64, float64](pg, 1), depth)
	}
	if got := pg.scratch.parked(key); got != depth {
		t.Fatalf("pool depth %d, want bound %d", got, depth)
	}
	for i := 0; i < maxScratchTypes+4; i++ {
		pg.scratch.put(string(rune('a'+i)), newEngineScratch[int64, int64](pg, 1), depth)
	}
	pg.scratch.mu.Lock()
	types := len(pg.scratch.byType)
	pg.scratch.mu.Unlock()
	if types > maxScratchTypes {
		t.Fatalf("%d distinct scratch types parked, want ≤ %d", types, maxScratchTypes)
	}
}

// TestConcurrentRunsShareGraph runs many simultaneous programs — same and
// different program types — on one ReuseBuffers PartitionedGraph and
// asserts every concurrent result is bit-identical to a serial run. Under
// -race this is the engine half of the serving-core guarantee: a built
// topology is a shared read-only structure, and all mutable run state lives
// in pooled per-run scratches.
func TestConcurrentRunsShareGraph(t *testing.T) {
	g := randomGraph(240, 900, 7)
	assign, err := partition.EdgePartition2D().Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := buildFrom(g, assign, 8, BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}

	prF := func() ([]float64, error) {
		vals, _, err := Run(context.Background(), pg, pagerankProgram(pg))
		return vals, err
	}
	ccF := func() ([]int64, error) {
		vals, _, err := Run(context.Background(), pg, minLabelProgram())
		return vals, err
	}
	wantPR, err := prF()
	if err != nil {
		t.Fatal(err)
	}
	wantCC, err := ccF()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				if w%2 == 0 {
					got, err := prF()
					if err != nil {
						errs[w] = err
						return
					}
					for i := range got {
						if got[i] != wantPR[i] {
							errs[w] = errMismatch
							return
						}
					}
				} else {
					got, err := ccF()
					if err != nil {
						errs[w] = err
						return
					}
					for i := range got {
						if got[i] != wantCC[i] {
							errs[w] = errMismatch
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := pg.scratch.parked(scratchKey[float64, float64]()); got == 0 {
		t.Fatal("no float64 scratches parked after concurrent runs")
	}
}

var errMismatch = errInterface("concurrent result differs from serial run")

type errInterface string

func (e errInterface) Error() string { return string(e) }

// pagerankProgram is a small fixed-iteration PageRank used by the
// concurrency tests (the real one lives in internal/algorithms, which
// depends on this package).
func pagerankProgram(pg *PartitionedGraph) Program[float64, float64] {
	outDeg := pg.G.OutDegrees()
	idx := make(map[graph.VertexID]int32, pg.G.NumVertices())
	for i, v := range pg.G.Vertices() {
		idx[v] = int32(i)
	}
	return Program[float64, float64]{
		Init:  func(id graph.VertexID) float64 { return 1.0 },
		VProg: func(id graph.VertexID, val, msg float64) float64 { return 0.15 + 0.85*msg },
		SendMsg: func(tr *Triplet[float64], emit Emitter[float64]) {
			if d := outDeg[idx[tr.SrcID()]]; d > 0 {
				emit.ToDst(tr.SrcVal / float64(d))
			}
		},
		MergeMsg:        func(a, b float64) float64 { return a + b },
		InitialMsg:      0,
		MaxIterations:   5,
		ActiveDirection: AllEdges,
	}
}

// minLabelProgram propagates the minimum initial label — a CC-shaped
// program with int64 state.
func minLabelProgram() Program[int64, int64] {
	return Program[int64, int64]{
		Init:  func(id graph.VertexID) int64 { return int64(id) },
		VProg: func(id graph.VertexID, val, msg int64) int64 { return min(val, msg) },
		SendMsg: func(tr *Triplet[int64], emit Emitter[int64]) {
			if tr.SrcVal < tr.DstVal {
				emit.ToDst(tr.SrcVal)
			} else if tr.DstVal < tr.SrcVal {
				emit.ToSrc(tr.DstVal)
			}
		},
		MergeMsg:        func(a, b int64) int64 { return min(a, b) },
		InitialMsg:      int64(1) << 62,
		MaxIterations:   6,
		ActiveDirection: Either,
	}
}

// TestScratchFollowsLineage: a topology derived by ApplyDelta holds its
// parent's scratch pool, so its first run revives the scratch the parent's
// run parked — refitted to the new sizes, reallocating only when a buffer's
// capacity is short — and the pool reports what it holds.
func TestScratchFollowsLineage(t *testing.T) {
	const parts = 4
	s := partition.EdgePartition2D()
	g := randomGraph(60, 400, 5)
	a, err := partition.Assign(g, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewPartitionedGraphFromAssignment(a, BuildOptions{ReuseBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	key := scratchKey[int64, int64]()
	run := func(pg *PartitionedGraph) []int64 {
		t.Helper()
		vals, _, err := Run(context.Background(), pg, minLabelProgram())
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	run(pg)
	if got := pg.scratch.parkedBytes(); got == 0 {
		t.Fatal("a parked scratch weighs nothing")
	}
	parked := pg.scratch.take(key)
	if parked == nil {
		t.Fatal("the parent's run parked no scratch")
	}
	if got := pg.scratch.parkedBytes(); got != 0 {
		t.Fatalf("an empty pool weighs %d bytes", got)
	}
	pg.scratch.put(key, parked, pg.scratchDepth())
	masterCap := cap(parked.(*engineScratch[int64, int64]).masterVals)

	// The first allocation is exact, so the first step outgrows it and the
	// buffers are replaced with headroom; the next small step fits; a step
	// that doubles the vertex count does not.
	for _, grow := range []int{3, 3, 2 * g.NumVertices()} {
		var suffix []graph.Edge
		for i := 0; i < grow; i++ {
			suffix = append(suffix, graph.Edge{Src: graph.VertexID(1000 + pg.G.NumVertices() + i), Dst: graph.VertexID(i % 60)})
		}
		ng, d := pg.G.Grow(suffix)
		na, err := a.Extend(ng, s)
		if err != nil {
			t.Fatal(err)
		}
		remap, err := graph.RemapVertices(d.OldVerts, ng)
		if err != nil {
			t.Fatal(err)
		}
		child, err := pg.ApplyDelta(na, remap)
		if err != nil {
			t.Fatal(err)
		}
		if child.scratch != pg.scratch {
			t.Fatal("ApplyDelta gave the child its own scratch pool")
		}
		got := run(child)
		fresh, err := NewPartitionedGraphFromAssignment(na, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := run(fresh); !slices.Equal(got, want) {
			t.Fatal("a run on a revived scratch differs from a run on a fresh one")
		}
		if n := child.scratch.parked(key); n != 1 {
			t.Fatalf("lineage pool holds %d scratches after the child's run, want the one revived", n)
		}
		revived := child.scratch.take(key)
		if revived != parked {
			t.Fatal("the child's run allocated a scratch instead of reviving its parent's")
		}
		sc := revived.(*engineScratch[int64, int64])
		if len(sc.masterVals) != ng.NumVertices() {
			t.Fatalf("revived scratch fitted to %d vertices, child has %d", len(sc.masterVals), ng.NumVertices())
		}
		if fits := ng.NumVertices() <= masterCap; fits != (cap(sc.masterVals) == masterCap) {
			t.Fatalf("refit reallocated=%v with %d vertices against capacity %d", !fits, ng.NumVertices(), masterCap)
		}
		child.scratch.put(key, revived, child.scratchDepth())
		pg, a, masterCap = child, na, cap(sc.masterVals)
	}
}

// TestPointerFree: the rule that decides whether a program's scratch may be
// parked — scalars, and arrays and structs of them, all the way down.
func TestPointerFree(t *testing.T) {
	type flat struct {
		rank, delta float64
		done        bool
		dist        [4]int32
	}
	type holder struct {
		n    int
		vote map[graph.VertexID]int64
	}
	for _, c := range []struct {
		typ  reflect.Type
		want bool
	}{
		{reflect.TypeFor[float64](), true},
		{reflect.TypeFor[graph.VertexID](), true},
		{reflect.TypeFor[[64]int32](), true},
		{reflect.TypeFor[flat](), true},
		{reflect.TypeFor[[2]flat](), true},
		{reflect.TypeFor[[0]*int](), true},
		{reflect.TypeFor[struct{}](), true},
		{reflect.TypeFor[map[graph.VertexID]int32](), false},
		{reflect.TypeFor[[]int32](), false},
		{reflect.TypeFor[string](), false},
		{reflect.TypeFor[*int](), false},
		{reflect.TypeFor[any](), false},
		{reflect.TypeFor[func()](), false},
		{reflect.TypeFor[chan int](), false},
		{reflect.TypeFor[holder](), false},
		{reflect.TypeFor[[3]holder](), false},
	} {
		if got := pointerFree(c.typ); got != c.want {
			t.Errorf("pointerFree(%v) = %v, want %v", c.typ, got, c.want)
		}
	}
}

// TestPointerValuedProgramNeverParks: a program whose messages are maps runs
// on a ReuseBuffers topology like any other, but its scratch — whose slots
// would keep maps alive that footprint cannot see — is dropped, not parked,
// while a scalar program on the same topology parks as before.
func TestPointerValuedProgramNeverParks(t *testing.T) {
	g := randomGraph(21, 40, 200)
	assign, err := partition.RandomVertexCut().Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	type votes map[graph.VertexID]int64
	prog := Program[graph.VertexID, votes]{
		Init: func(id graph.VertexID) graph.VertexID { return id },
		VProg: func(id graph.VertexID, val graph.VertexID, msg votes) graph.VertexID {
			return val + graph.VertexID(len(msg))
		},
		SendMsg: func(tr *Triplet[graph.VertexID], emit Emitter[votes]) {
			emit.ToDst(votes{tr.SrcVal: 1})
		},
		MergeMsg: func(a, b votes) votes {
			out := votes{}
			for k, v := range a {
				out[k] += v
			}
			for k, v := range b {
				out[k] += v
			}
			return out
		},
		MaxIterations:   3,
		ActiveDirection: AllEdges,
	}
	var want []graph.VertexID
	for _, reuse := range []bool{false, true, true} {
		pg, err := buildFrom(g, assign, 4, BuildOptions{ReuseBuffers: reuse})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(context.Background(), pg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("ReuseBuffers=%v changed the result", reuse)
		}
		if n := pg.scratch.parked(scratchKey[graph.VertexID, votes]()); n != 0 {
			t.Fatalf("%d map-valued scratches parked", n)
		}
		if b := pg.scratch.parkedBytes(); b != 0 {
			t.Fatalf("pool weighs %d bytes after a map-valued run", b)
		}
		if reuse {
			runTrivial[int64](t, pg)
			if pg.scratch.parked(scratchKey[int64, int64]()) != 1 {
				t.Fatal("a scalar program no longer parks its scratch")
			}
		}
	}
}
