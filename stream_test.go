package cutfit_test

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cutfit"
	"cutfit/internal/gen"
	"cutfit/internal/obsv"
)

// streamRig is a caching Session driven the way the benchmark's
// stream-update workload drives one: the first three quarters of an R-MAT
// graph seed it with a warm 2D topology, and one cycle appends the next
// 0.5 % batch, runs cc, retracts the batch appended streamRigLag cycles
// earlier and runs cc again. Batches are reused in order once they run out
// (each was retracted long before it comes round again).
type streamRig struct {
	tb      testing.TB
	se      *cutfit.Session
	s       cutfit.Strategy
	cur     *cutfit.Graph
	batches [][]cutfit.Edge
	cycle   int

	// spans, when set, is called with every generation step's parent and
	// child (BenchmarkStreamCycle's span-sharing count).
	spans func(parent, child *cutfit.Graph)
}

const (
	streamRigLag   = 4
	streamRigParts = 64
)

func newStreamRig(tb testing.TB, scale int, cacheBytes int64) *streamRig {
	tb.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 8, 1))
	if err != nil {
		tb.Fatal(err)
	}
	edges := g.Edges()
	n := len(edges)
	r := &streamRig{
		tb: tb,
		se: cutfit.NewSession(cutfit.SessionOptions{MaxCacheBytes: cacheBytes}),
		s:  cutfit.EdgePartition2D(),
	}
	for lo, size := n*3/4, n/200; lo+size <= n; lo += size {
		r.batches = append(r.batches, edges[lo:lo+size])
	}
	r.cur = cutfit.FromEdges(append([]cutfit.Edge(nil), edges[:n*3/4]...))
	r.run(r.cur)
	for ; r.cycle < streamRigLag; r.cycle++ {
		r.cur = r.grow()
	}
	return r
}

func (r *streamRig) batch(cycle int) []cutfit.Edge { return r.batches[cycle%len(r.batches)] }

func (r *streamRig) run(g *cutfit.Graph) *cutfit.RunReport {
	rep, err := r.se.Run(context.Background(), g, r.s, streamRigParts, "cc", 0)
	if err != nil {
		r.tb.Fatal(err)
	}
	return rep
}

func (r *streamRig) grow() *cutfit.Graph {
	g, err := r.se.AppendEdges(r.cur, r.batch(r.cycle))
	if err != nil {
		r.tb.Fatal(err)
	}
	r.run(g)
	if r.spans != nil {
		r.spans(r.cur, g)
	}
	return g
}

// step runs one append + cc + retract + cc cycle.
func (r *streamRig) step() {
	grown := r.grow()
	shrunk, err := r.se.RemoveEdges(grown, r.batch(r.cycle-streamRigLag))
	if err != nil {
		r.tb.Fatal(err)
	}
	r.run(shrunk)
	if r.spans != nil {
		r.spans(grown, shrunk)
	}
	r.cur = shrunk
	r.cycle++
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStoreBoundsLiveHeap checks that the cache's byte accounting covers
// what the cache keeps alive: after a miniature stream (64k edges, 40
// append/retract cycles with cc, a budget small enough that eviction starts
// around the fifth cycle) the live heap above the pre-session baseline stays
// within 1.3 × CacheStats().Bytes plus a fixed allowance for what is the
// caller's (the tip generation and the batch list) or bounded separately
// (the delta chain's records, a quarter of the budget). Run with
// -memprofile it is the heap-attribution artifact: every retained byte is
// either priced by an entry or listed in the allowance.
func TestStoreBoundsLiveHeap(t *testing.T) {
	const (
		budget    = 8 << 20
		allowance = 4 << 20
		cycles    = 40
	)
	base := liveHeap()
	r := newStreamRig(t, 13, budget)
	for i := 0; i < cycles; i++ {
		r.step()
	}
	live := int64(liveHeap() - base)
	st := r.se.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("budget %d never evicted: the stream does not exercise the bound", budget)
	}
	if st.Bytes > budget {
		t.Errorf("cache reports %d bytes, over its %d budget", st.Bytes, budget)
	}
	if bound := st.Bytes*13/10 + allowance; live > bound {
		t.Errorf("live heap %d B above baseline, want ≤ 1.3 × %d (cache bytes) + %d = %d",
			live, st.Bytes, allowance, bound)
	}
	runtime.KeepAlive(r)
}

// BenchmarkStreamCycle measures one stream-update cycle (append 0.5 %, cc,
// retract 0.5 %, cc) on a caching Session over a 256k-edge R-MAT graph with
// a budget that holds about ten generations. B/op is what a generation step
// allocates; heap/priced is the live heap above the pre-session baseline
// divided by CacheStats().Bytes at the end of the run — how much the cache
// keeps alive per byte it accounts for. seeded/op is how many of a cycle's two
// cc runs started from the parent generation's answer; below 1.9 (both,
// compaction boundaries aside) the benchmark fails, and `make bench-smoke`
// with it.
//
// parts_touched/step and midtable_frac size ROADMAP 4a (share the edge spans
// of partitions a step left alone) before anyone builds it: of the 64
// partitions, how many gained or lost an edge in a generation step, and in
// what share of those a mirror entered or left the table before its end —
// which shifts every later local index, so the span cannot be patched by
// appending to it either. index_built/op and
// index_carried/op count the partition frontier indexes a cycle built by
// counting sort and carried from the parent's
// (cutfit_pregel_frontier_index_total): an append step must carry every
// index its parent holds, so one that built more than its parent's unindexed
// partitions account for fails the benchmark. Counted off the clock.
func BenchmarkStreamCycle(b *testing.B) {
	base := liveHeap()
	r := newStreamRig(b, 15, 64<<20)
	frontier := obsv.Default.CounterVec("cutfit_pregel_frontier_index_total", "", "how")
	built, carried := frontier.With("built"), frontier.With("carried")
	var steps, touched, shifted int
	var idxBuilt, idxCarried, lastBuilt, lastCarried int64
	r.spans = func(parent, child *cutfit.Graph) {
		b.StopTimer()
		defer b.StartTimer()
		ppg, err := r.se.Partition(parent, r.s, streamRigParts)
		if err != nil {
			b.Fatal(err)
		}
		cpg, err := r.se.Partition(child, r.s, streamRigParts)
		if err != nil {
			b.Fatal(err)
		}
		steps++
		nb, nc := built.Value()-lastBuilt, carried.Value()-lastCarried
		idxBuilt, idxCarried = idxBuilt+nb, idxCarried+nc
		if unindexed := streamRigParts - ppg.FrontierIndexes(); child.NumEdges() > parent.NumEdges() && nb > int64(unindexed) {
			b.Errorf("step %d appended to a parent with %d unindexed partitions and built %d frontier indexes: an indexed parent's were not carried", steps, unindexed, nb)
		}
		lastBuilt, lastCarried = built.Value(), carried.Value()
		pv, cv := parent.Vertices(), child.Vertices()
		for p, cp := range cpg.Parts {
			pp := ppg.Parts[p]
			if pp.NumEdges() == cp.NumEdges() {
				continue // a step here only appends or only retracts
			}
			touched++
			for l, gv := range pp.LocalVerts {
				if l == len(cp.LocalVerts) || cv[cp.LocalVerts[l]] != pv[gv] {
					shifted++
					break
				}
			}
		}
	}
	seeded := r.se.CacheStats().Seeded
	lastBuilt, lastCarried = built.Value(), carried.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step()
	}
	b.StopTimer()
	live := float64(liveHeap() - base)
	st := r.se.CacheStats()
	b.ReportMetric(live/float64(st.Bytes), "heap/priced")
	perOp := float64(st.Seeded-seeded) / float64(b.N)
	b.ReportMetric(perOp, "seeded/op")
	if perOp < 1.9 {
		b.Errorf("%.2f of a cycle's two cc runs were seeded, want ≥ 1.9: seeded starts are not engaging", perOp)
	}
	b.ReportMetric(float64(touched)/float64(steps), "parts_touched/step")
	b.ReportMetric(float64(shifted)/float64(max(touched, 1)), "midtable_frac")
	b.ReportMetric(float64(idxBuilt)/float64(b.N), "index_built/op")
	b.ReportMetric(float64(idxCarried)/float64(b.N), "index_carried/op")
	runtime.KeepAlive(r)
}

// TestConcurrentLineage: eight goroutines append to, retract from and run cc
// on generations descended from one served graph through one Session, all
// at once — so they compete for the lineage's spare edge capacity, its
// scratch pool and the cache — and every generation must hold exactly its
// own edges and every run report that generation's component count (run
// under -race by `make race`).
func TestConcurrentLineage(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	n := len(edges)
	se := cutfit.NewSession(cutfit.SessionOptions{MaxCacheBytes: 2 << 20})
	s := cutfit.EdgePartition2D()
	ctx := context.Background()
	base, err := se.AppendEdges(cutfit.FromEdges(append([]cutfit.Edge(nil), edges[:n/2]...)), edges[n/2:n/2+50])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Run(ctx, base, s, 8, "cc", 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := base
			dense := append([]cutfit.Edge(nil), base.Edges()...) // tombstoned slots included
			dead := 0
			for step := 0; step < 6; step++ {
				var err error
				if step%2 == 0 {
					batch := edges[n/2+50+(w*6+step)*40:][:40]
					cur, err = se.AppendEdges(cur, batch)
					dense = append(dense, batch...)
				} else {
					// Retract the batch the previous step appended.
					cur, err = se.RemoveEdges(cur, dense[len(dense)-40:])
					dead += 40
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(cur.Edges(), dense) || cur.NumDeadEdges() != dead {
					t.Errorf("worker %d step %d: generation holds another worker's edges", w, step)
					return
				}
				rep, err := se.Run(ctx, cur, s, 8, "cc", 0)
				if err != nil {
					t.Error(err)
					return
				}
				if _, want := cur.ConnectedComponents(); rep.Components != want {
					t.Errorf("worker %d step %d: cc found %d components, want %d", w, step, rep.Components, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every worker's steps descend from base, whose answer the first run left:
	// unless the 2 MiB budget evicted every parent in time, they were seeded.
	if st := se.CacheStats(); st.Seeded == 0 {
		t.Errorf("none of the 48 runs on descendant generations was seeded: %+v", st)
	}
}
