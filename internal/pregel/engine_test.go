package pregel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// sumProgram is a trivial one-round program: every vertex sends 1 along
// each out-edge, then stops (messages of value 0 are not re-sent).
func degreeProgram() Program[int64, int64] {
	return Program[int64, int64]{
		Init: func(id graph.VertexID) int64 { return 0 },
		VProg: func(id graph.VertexID, val, msg int64) int64 {
			return val + msg
		},
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			emit.ToDst(1)
		},
		MergeMsg:        func(a, b int64) int64 { return a + b },
		InitialMsg:      0,
		MaxIterations:   1,
		ActiveDirection: AllEdges,
	}
}

func TestRunComputesInDegrees(t *testing.T) {
	g := randomGraph(21, 40, 200)
	for _, parts := range []int{1, 2, 7, 16} {
		pg := mustPartition(t, g, partition.RandomVertexCut(), parts)
		vals, stats, err := Run(context.Background(), pg, degreeProgram())
		if err != nil {
			t.Fatal(err)
		}
		inDeg := g.InDegrees()
		for i, v := range vals {
			if v != int64(inDeg[i]) {
				t.Fatalf("parts=%d vertex %d: got %d, want %d", parts, i, v, inDeg[i])
			}
		}
		if len(stats.Supersteps) != 1 {
			t.Fatalf("supersteps = %d, want 1 (MaxIterations)", len(stats.Supersteps))
		}
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	bad := Program[int64, int64]{} // everything nil
	if _, _, err := Run(context.Background(), pg, bad); err == nil {
		t.Fatal("nil hooks should error")
	}
	p := degreeProgram()
	p.MaxIterations = -1
	if _, _, err := Run(context.Background(), pg, p); err == nil {
		t.Fatal("negative MaxIterations should error")
	}
}

func TestRunContextCancellation(t *testing.T) {
	g := randomGraph(22, 30, 120)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := degreeProgram()
	prog.MaxIterations = 100
	if _, _, err := Run(ctx, pg, prog); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
}

// TestBroadcastAccounting verifies the central accounting identity: on the
// first superstep every vertex is active, so broadcast messages equal the
// total mirror count (CommCost + NonCut in metric terms).
func TestBroadcastAccounting(t *testing.T) {
	g := randomGraph(23, 60, 300)
	for _, s := range []partition.Strategy{partition.RandomVertexCut(), partition.EdgePartition2D(), partition.DestinationCut()} {
		pg := mustPartition(t, g, s, 8)
		_, stats, err := Run(context.Background(), pg, degreeProgram())
		if err != nil {
			t.Fatal(err)
		}
		ss := stats.Supersteps[0]
		if ss.BroadcastMsgs != pg.TotalMirrors() {
			t.Fatalf("%s: broadcast %d != total mirrors %d", s.Name(), ss.BroadcastMsgs, pg.TotalMirrors())
		}
		if ss.BroadcastBytes != 8*pg.TotalMirrors() {
			t.Fatalf("%s: broadcast bytes %d", s.Name(), ss.BroadcastBytes)
		}
		if ss.ActiveVertices != int64(g.NumVertices()) {
			t.Fatalf("%s: active %d != V %d", s.Name(), ss.ActiveVertices, g.NumVertices())
		}
		if ss.EdgesScanned != int64(g.NumEdges()) {
			t.Fatalf("%s: scanned %d != E %d", s.Name(), ss.EdgesScanned, g.NumEdges())
		}
	}
}

// TestReduceMsgsBounded: partial aggregates per superstep cannot exceed the
// number of (partition, vertex) mirror slots.
func TestReduceMsgsBounded(t *testing.T) {
	g := randomGraph(24, 50, 400)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 8)
	_, stats, err := Run(context.Background(), pg, degreeProgram())
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range stats.Supersteps {
		if ss.ReduceMsgs > pg.TotalMirrors() {
			t.Fatalf("reduce msgs %d exceed mirror slots %d", ss.ReduceMsgs, pg.TotalMirrors())
		}
	}
}

func TestResultsIndependentOfParallelism(t *testing.T) {
	g := randomGraph(25, 80, 500)
	assign, err := partition.EdgePartition2D().Partition(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	var reference []int64
	for _, par := range []int{1, 2, 8} {
		pg, err := NewPartitionedGraph(g, assign, 9)
		if err != nil {
			t.Fatal(err)
		}
		pg.Parallelism = par
		vals, _, err := Run(context.Background(), pg, degreeProgram())
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = vals
			continue
		}
		for i := range vals {
			if vals[i] != reference[i] {
				t.Fatalf("parallelism %d: vertex %d differs", par, i)
			}
		}
	}
}

// TestActiveDirectionOut: with Out direction, a label that only flows
// forward stops propagating when its source no longer updates.
func TestActiveDirections(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3. A "max seen" propagation with direction Out
	// needs 3 rounds to reach vertex 3.
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	prog := Program[int64, int64]{
		Init: func(id graph.VertexID) int64 { return int64(id) },
		VProg: func(id graph.VertexID, val, msg int64) int64 {
			if msg > val {
				return msg
			}
			return val
		},
		SendMsg: func(t *Triplet[int64], emit Emitter[int64]) {
			if t.SrcVal > t.DstVal {
				emit.ToDst(t.SrcVal)
			}
		},
		MergeMsg: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		InitialMsg:      -1,
		ActiveDirection: Out,
	}
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	vals, stats, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing propagates (values already increase along the chain), but
	// the run must converge.
	if !stats.Converged {
		t.Fatal("expected convergence")
	}
	for i, v := range vals {
		if v != int64(g.Vertices()[i]) {
			t.Fatalf("vertex %d changed to %d", i, v)
		}
	}

	// Reverse chain: 3 -> 2 -> 1 -> 0 — now values propagate and need
	// several supersteps.
	g2 := graph.FromEdges([]graph.Edge{{Src: 3, Dst: 2}, {Src: 2, Dst: 1}, {Src: 1, Dst: 0}})
	pg2 := mustPartition(t, g2, partition.RandomVertexCut(), 2)
	vals2, stats2, err := Run(context.Background(), pg2, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals2 {
		if v != 3 {
			t.Fatalf("vertex %d = %d, want 3", i, v)
		}
	}
	if n := stats2.NumSupersteps(); n < 3 {
		t.Fatalf("supersteps = %d, want >= 3", n)
	}
	if !stats2.Converged {
		t.Fatal("expected convergence")
	}
}

func TestEitherDirectionPropagatesBothWays(t *testing.T) {
	// Min-label propagation over a directed chain must still reach
	// everything when scanning Either direction.
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3}})
	prog := Program[graph.VertexID, graph.VertexID]{
		Init: func(id graph.VertexID) graph.VertexID { return id },
		VProg: func(id graph.VertexID, val, msg graph.VertexID) graph.VertexID {
			if msg < val {
				return msg
			}
			return val
		},
		SendMsg: func(t *Triplet[graph.VertexID], emit Emitter[graph.VertexID]) {
			if t.SrcVal < t.DstVal {
				emit.ToDst(t.SrcVal)
			} else if t.DstVal < t.SrcVal {
				emit.ToSrc(t.DstVal)
			}
		},
		MergeMsg: func(a, b graph.VertexID) graph.VertexID {
			if a < b {
				return a
			}
			return b
		},
		InitialMsg:      graph.VertexID(math.MaxInt64),
		ActiveDirection: Either,
	}
	pg := mustPartition(t, g, partition.CanonicalRandomVertexCut(), 3)
	vals, _, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("vertex %d labeled %d, want 0", i, v)
		}
	}
}

func TestCustomByteAccounting(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	pg := mustPartition(t, g, partition.RandomVertexCut(), 1)
	prog := degreeProgram()
	prog.StateBytes = func(int64) int { return 100 }
	prog.MsgBytes = func(int64) int { return 7 }
	_, stats, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.Supersteps[0]
	if ss.BroadcastBytes != 100*ss.BroadcastMsgs {
		t.Fatalf("broadcast bytes %d for %d msgs", ss.BroadcastBytes, ss.BroadcastMsgs)
	}
	if ss.ReduceBytes != 7*ss.ReduceMsgs {
		t.Fatalf("reduce bytes %d for %d msgs", ss.ReduceBytes, ss.ReduceMsgs)
	}
}

func TestRunStatsTotals(t *testing.T) {
	g := randomGraph(29, 40, 200)
	pg := mustPartition(t, g, partition.EdgePartition1D(), 4)
	prog := degreeProgram()
	prog.MaxIterations = 3
	_, stats, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var bm, rm, bytes, scanned int64
	for _, ss := range stats.Supersteps {
		bm += ss.BroadcastMsgs
		rm += ss.ReduceMsgs
		bytes += ss.TotalNetworkBytes()
		scanned += ss.EdgesScanned
	}
	if stats.TotalBroadcastMsgs() != bm || stats.TotalReduceMsgs() != rm {
		t.Fatal("totals disagree with superstep sums")
	}
	if stats.TotalNetworkBytes() != bytes || stats.TotalEdgesScanned() != scanned {
		t.Fatal("byte/scan totals disagree")
	}
}

func TestMaxComputeAndSum(t *testing.T) {
	ss := SuperstepStats{ComputePerPart: []float64{1, 5, 3}}
	if ss.MaxCompute() != 5 {
		t.Fatalf("MaxCompute = %g", ss.MaxCompute())
	}
	if ss.SumCompute() != 9 {
		t.Fatalf("SumCompute = %g", ss.SumCompute())
	}
}

func TestEdgeDirectionString(t *testing.T) {
	names := map[EdgeDirection]string{
		Out: "Out", In: "In", Either: "Either", Both: "Both", AllEdges: "All",
	}
	for d, want := range names {
		if d.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(d), d.String(), want)
		}
	}
	if EdgeDirection(99).String() == "" {
		t.Fatal("unknown direction should still stringify")
	}
}

func TestUserPanicBecomesError(t *testing.T) {
	g := randomGraph(41, 30, 100)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 4)
	prog := degreeProgram()
	prog.SendMsg = func(tr *Triplet[int64], emit Emitter[int64]) {
		panic("boom in user code")
	}
	_, _, err := Run(context.Background(), pg, prog)
	if err == nil {
		t.Fatal("panic in SendMsg should surface as an error")
	}
	prog2 := degreeProgram()
	calls := 0
	prog2.VProg = func(id graph.VertexID, val, msg int64) int64 {
		calls++
		panic("boom in vprog")
	}
	if _, _, err := Run(context.Background(), pg, prog2); err == nil {
		t.Fatal("panic in VProg should surface as an error")
	}
}

func TestOnSuperstepHalt(t *testing.T) {
	// A long chain with min-label propagation needs many supersteps; halt
	// after 2 via the monitor hook.
	n := 40
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	g := graph.FromEdges(edges)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 4)
	prog := Program[graph.VertexID, graph.VertexID]{
		Init: func(id graph.VertexID) graph.VertexID { return id },
		VProg: func(id graph.VertexID, val, msg graph.VertexID) graph.VertexID {
			if msg < val {
				return msg
			}
			return val
		},
		SendMsg: func(tr *Triplet[graph.VertexID], emit Emitter[graph.VertexID]) {
			if tr.SrcVal < tr.DstVal {
				emit.ToDst(tr.SrcVal)
			}
		},
		MergeMsg: func(a, b graph.VertexID) graph.VertexID {
			if a < b {
				return a
			}
			return b
		},
		InitialMsg:      graph.VertexID(1 << 62),
		ActiveDirection: Out,
		OnSuperstep: func(ss *SuperstepStats) error {
			if ss.Superstep >= 2 {
				return ErrHalt
			}
			return nil
		},
	}
	_, stats, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Halted || stats.Converged {
		t.Fatalf("halted=%v converged=%v, want halted", stats.Halted, stats.Converged)
	}
	if stats.NumSupersteps() != 2 {
		t.Fatalf("supersteps = %d, want 2", stats.NumSupersteps())
	}
}

func TestOnSuperstepErrorAborts(t *testing.T) {
	g := randomGraph(43, 20, 60)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	prog := degreeProgram()
	prog.MaxIterations = 5
	wantErr := fmt.Errorf("monitor failure")
	prog.OnSuperstep = func(ss *SuperstepStats) error { return wantErr }
	_, _, err := Run(context.Background(), pg, prog)
	if err == nil || !strings.Contains(err.Error(), "monitor failure") {
		t.Fatalf("err = %v, want monitor failure", err)
	}
}

// TestLocalRunStopsWhenCancelled is TestScanStopsWhenCancelled for the
// in-process engine: the compute phase starts no partition once the run's
// context is done. The program cancels on the first edge any goroutine
// scans, so at most one partition per scan goroutine — the ones already
// started — runs to its end, out of sixty-four, and the run returns the
// context's error instead of finishing the superstep.
func TestLocalRunStopsWhenCancelled(t *testing.T) {
	const numParts, edgesPerPart, scanWorkers = 64, 50, 4
	edges := make([]graph.Edge, numParts*edgesPerPart)
	assign := make([]partition.PID, len(edges))
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 97), Dst: graph.VertexID(i % 89)}
		assign[i] = partition.PID(i / edgesPerPart)
	}
	pg, err := NewPartitionedGraphOpts(graph.FromEdges(edges), assign, numParts, BuildOptions{Parallelism: scanWorkers})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scanned atomic.Int64
	prog := pagerankProgram(pg)
	prog.SendMsg = func(*Triplet[float64], Emitter[float64]) {
		cancel()
		scanned.Add(1)
	}
	if _, _, err := Run(ctx, pg, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a context cancelled mid-superstep: %v, want context.Canceled", err)
	}
	if got := scanned.Load(); got == 0 || got > scanWorkers*edgesPerPart {
		t.Fatalf("%d edges scanned after the cancel at the first: want at most %d (one partition per goroutine) of %d",
			got, scanWorkers*edgesPerPart, len(edges))
	}
}
