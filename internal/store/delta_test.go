package store

import (
	"reflect"
	"sync/atomic"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
)

// countingSuffixStrategy counts both full Partition passes and suffix-only
// AssignSuffix passes — the oracle proving the delta chain never re-runs
// the strategy over the prefix.
type countingSuffixStrategy struct {
	inner     partition.Strategy // must be a SuffixAssigner
	name      string
	fullCalls atomic.Int64
	sufCalls  atomic.Int64
}

func (c *countingSuffixStrategy) Name() string { return c.name }
func (c *countingSuffixStrategy) Key() string  { return c.name }
func (c *countingSuffixStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	c.fullCalls.Add(1)
	return c.inner.Partition(g, numParts)
}
func (c *countingSuffixStrategy) AssignSuffix(edges []graph.Edge, out []partition.PID, numParts int) error {
	c.sufCalls.Add(1)
	return c.inner.(partition.SuffixAssigner).AssignSuffix(edges, out, numParts)
}

func growBy(t *testing.T, st *Store, g *graph.Graph, edges []graph.Edge) *graph.Graph {
	t.Helper()
	ng, d := g.Grow(edges)
	st.RecordDelta(d)
	return ng
}

// TestDeltaDerivesWithoutRepartitioning: after warming artifacts on the
// base generation, artifacts for an appended generation cost one
// suffix-only pass — zero full strategy passes — and are bit-identical to
// a from-scratch computation.
func TestDeltaDerivesWithoutRepartitioning(t *testing.T) {
	const parts = 8
	st := New(Config{})
	g0 := testGraph(t, 120, 900, 5)
	cs := &countingSuffixStrategy{inner: partition.EdgePartition2D(), name: "count2Dsuffix"}

	// Warm the full chain on the base generation.
	if _, err := st.Assignment(g0, cs, parts); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Built(g0, cs, parts); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Metrics(g0, cs, parts); err != nil {
		t.Fatal(err)
	}
	if got := cs.fullCalls.Load(); got != 1 {
		t.Fatalf("warming ran %d full passes, want 1", got)
	}

	g1 := growBy(t, st, g0, []graph.Edge{{Src: 3, Dst: 500}, {Src: 500, Dst: 7}, {Src: 1, Dst: 2}})
	a1, err := st.Assignment(g1, cs, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg1, err := st.Built(g1, cs, parts)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := st.Metrics(g1, cs, parts)
	if err != nil {
		t.Fatal(err)
	}
	if full, suf := cs.fullCalls.Load(), cs.sufCalls.Load(); full != 1 || suf != 1 {
		t.Fatalf("delta generation ran %d full / %d suffix passes, want 1 / 1", full, suf)
	}
	if st.Stats().DeltaDerived == 0 {
		t.Fatal("DeltaDerived stat not incremented")
	}

	// Bit-identical to from-scratch computation on the grown graph.
	wantA, err := partition.Assign(g1, partition.EdgePartition2D(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.PIDs, wantA.PIDs) {
		t.Fatal("derived assignment differs from one-shot")
	}
	wantM, err := metrics.FromAssignment(wantA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, pg1.Metrics()) || !reflect.DeepEqual(m1, wantM) {
		t.Fatalf("derived metrics differ from one-shot:\n got %+v\nwant %+v", m1, wantM)
	}
}

// TestDeltaChainAcrossGenerations: a request on generation N derives from
// the nearest cached ancestor even when intermediate generations were
// never requested.
func TestDeltaChainAcrossGenerations(t *testing.T) {
	const parts = 4
	st := New(Config{})
	cs := &countingSuffixStrategy{inner: partition.SourceCut(), name: "countSC"}
	g := testGraph(t, 60, 300, 9)
	if _, err := st.Assignment(g, cs, parts); err != nil {
		t.Fatal(err)
	}
	// Three generations, none of them queried in between.
	for i := 0; i < 3; i++ {
		g = growBy(t, st, g, []graph.Edge{{Src: graph.VertexID(100 + i), Dst: graph.VertexID(i)}})
	}
	a, err := st.Assignment(g, cs, parts)
	if err != nil {
		t.Fatal(err)
	}
	if full := cs.fullCalls.Load(); full != 1 {
		t.Fatalf("%d full passes, want 1 (chain walk should reach the base)", full)
	}
	want, err := partition.Assign(g, partition.SourceCut(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PIDs, want.PIDs) {
		t.Fatal("chain-derived assignment differs from one-shot")
	}
}

// TestDeltaFallbackWithoutCachedBase: no cached ancestor artifact means the
// full pass runs — the chain never computes on a superseded generation.
func TestDeltaFallbackWithoutCachedBase(t *testing.T) {
	st := New(Config{})
	cs := &countingSuffixStrategy{inner: partition.EdgePartition2D(), name: "cold"}
	g0 := testGraph(t, 50, 200, 11)
	g1 := growBy(t, st, g0, []graph.Edge{{Src: 1, Dst: 2}})
	if _, err := st.Assignment(g1, cs, 4); err != nil {
		t.Fatal(err)
	}
	if full, suf := cs.fullCalls.Load(), cs.sufCalls.Load(); full != 1 || suf != 0 {
		t.Fatalf("cold chain ran %d full / %d suffix passes, want 1 / 0", full, suf)
	}
	if st.Stats().DeltaDerived != 0 {
		t.Fatal("cold chain should not count as delta-derived")
	}
}

// TestDeltaRangeFallsBackToRebuild: Range's prefix moves under growth, so
// the topology patch must be rejected and rebuilt — and still be correct.
func TestDeltaRangeFallsBackToRebuild(t *testing.T) {
	const parts = 4
	st := New(Config{})
	g0 := testGraph(t, 50, 400, 13)
	r := partition.Range()
	if _, err := st.Built(g0, r, parts); err != nil {
		t.Fatal(err)
	}
	// A far-out ID moves every block boundary.
	g1 := growBy(t, st, g0, []graph.Edge{{Src: 100000, Dst: 0}})
	pg, err := st.Built(g1, r, parts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partition.Assign(g1, partition.Range(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pg.AssignOrder(), want.PIDs) {
		t.Fatal("rebuilt Range topology does not match one-shot assignment")
	}
}

// TestInvalidateGraphDropsDeltaRecords: invalidating an ancestor must cut
// the chain, not leave it pointing at a forgotten generation.
func TestInvalidateGraphDropsDeltaRecords(t *testing.T) {
	st := New(Config{})
	cs := &countingSuffixStrategy{inner: partition.EdgePartition2D(), name: "inv"}
	g0 := testGraph(t, 40, 200, 17)
	if _, err := st.Assignment(g0, cs, 4); err != nil {
		t.Fatal(err)
	}
	g1 := growBy(t, st, g0, []graph.Edge{{Src: 1, Dst: 3}})
	st.InvalidateGraph(g0)
	if _, err := st.Assignment(g1, cs, 4); err != nil {
		t.Fatal(err)
	}
	if full := cs.fullCalls.Load(); full != 2 {
		t.Fatalf("after invalidation %d full passes, want 2", full)
	}
	if st.Stats().DeltaDerived != 0 {
		t.Fatal("invalidated chain should not derive")
	}
}

// TestDeltaStreamTransferKeepsBytesAccurate: deriving moves the ancestor
// assignment's retained StreamState into the child; the cached ancestor
// must be re-priced so st.bytes keeps matching actually-retained memory.
func TestDeltaStreamTransferKeepsBytesAccurate(t *testing.T) {
	const parts = 4
	st := New(Config{})
	g0 := testGraph(t, 80, 400, 21)
	s := partition.HDRF(1.0)
	a0, err := st.Assignment(g0, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	g1 := growBy(t, st, g0, []graph.Edge{{Src: 1, Dst: 2}})
	a1, err := st.Assignment(g1, s, parts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().DeltaDerived == 0 {
		t.Fatal("expected a delta-derived assignment")
	}
	want := pricedBytes(a0, a1)
	if got := st.Stats().Bytes; got != want {
		t.Fatalf("cache bytes %d, want %d (ancestor entry not re-priced after stream transfer)", got, want)
	}
}

// pricedBytes is what a cache holding exactly vals reports: each artifact's
// own bytes plus every distinct shared allocation once.
func pricedBytes(vals ...any) int64 {
	var b int64
	shared := map[any]int64{}
	for _, v := range vals {
		p := priceOf(v)
		b += p.own
		for _, s := range p.shares {
			shared[s.Key] = s.Bytes
		}
	}
	for _, n := range shared {
		b += n
	}
	return b
}

// TestRecordDeltaByteBudget: delta records pin parent generations; the
// store must bound the estimated pinned bytes (a quarter of the cache
// budget), not just the record count.
func TestRecordDeltaByteBudget(t *testing.T) {
	st := New(Config{MaxBytes: 1 << 20}) // pinned-generation budget: 256 KiB
	child := graph.FromEdges([]graph.Edge{{Src: 0, Dst: 1}})
	for i := 0; i < 10; i++ {
		// Each record pins a 256 KiB parent edge list (16 Ki edges x 16 B)
		// that the child does not share.
		st.RecordDelta(graph.Delta{Old: graph.FromEdges(make([]graph.Edge, 1<<14)), New: child.Clone(), OldLen: 1 << 14})
	}
	st.mu.Lock()
	n, pinned, budget := len(st.deltas), st.deltaBytes, st.deltaBudget
	st.mu.Unlock()
	if n != 1 {
		t.Fatalf("retained %d delta records, want 1 (each fills the whole budget)", n)
	}
	if pinned > budget && n > 1 {
		t.Fatalf("pinned %d bytes exceeds budget %d", pinned, budget)
	}
}
