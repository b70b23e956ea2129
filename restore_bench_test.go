package cutfit_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"cutfit"
	"cutfit/internal/datasets"
	"cutfit/internal/gen"
)

// BenchmarkRestoreVsRebuild measures what durability buys: serving the
// youtube analog's engine-ready partitioning (128 partitions, 2D) from a
// fresh session that either
//
//   - restore: reads the cached artifact pair — the built topology with
//     its embedded per-edge assignment (AssignOrder) — from the disk tier:
//     one read, decode and full invariant validation, zero strategy passes,
//     zero sorts; or
//   - rebuild: re-partitions and re-builds from scratch — the cost every
//     deploy or crash paid before the disk tier existed.
//
// Both sides are exactly one Session.Partition call against the same
// registered in-memory graph; sessions are constructed outside the timer
// (an empty session is not restoration work). The acceptance bar is
// restore ≥ 10× faster than rebuild.
//
// The restart pair below widens the scope to a full process restart from a
// snapshot file: the graph itself, the standalone assignment artifact
// (histogram + strategy identity) and the topology all come back from one
// read, versus a cold graph re-deriving its views and re-running the whole
// pipeline.
//
// The same four cells run on the youtube analog (names unchanged, so
// earlier recorded numbers stay comparable) and, under rmat16/, on the 524k-edge
// R-MAT graph of BenchmarkReadEdgeList and the warm-restart benchmark
// workload — big enough that the per-edge cost of the snapshot decoder is
// what the restart cells measure.
func BenchmarkRestoreVsRebuild(b *testing.B) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		b.Fatal(err)
	}
	benchRestoreVsRebuild(b, g)
	b.Run("rmat16", func(b *testing.B) {
		g := rmat16(b)
		benchRestoreVsRebuild(b, g)
		b.Run("restart-cc", func(b *testing.B) { benchRestartCC(b, g) })
	})
}

// benchRestartCC is one operation of the warm-restart benchmark workload
// (benchmark/w_restart.go) inside the test binary: the snapshot holds the
// six paper assignments with their metric sets and the 2D topology at 64
// partitions; an operation restores a session from the snapshot bytes and
// runs cc on the restored graph. restore_ms and run_ms split the operation's
// wall time between the two calls.
func benchRestartCC(b *testing.B, g *cutfit.Graph) {
	const parts = 64
	s := cutfit.EdgePartition2D()
	warm := cutfit.NewSession(cutfit.SessionOptions{})
	if _, err := warm.Select(g, cutfit.Strategies(), parts, cutfit.ProfilePageRank); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Partition(g, s, parts); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := warm.SnapshotNamed(&buf, map[string]*cutfit.Graph{"g": g}); err != nil {
		b.Fatal(err)
	}
	want, err := warm.Run(context.Background(), g, s, parts, "cc", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var restore, run time.Duration
	for b.Loop() {
		t0 := time.Now()
		se, named, err := cutfit.RestoreSession(bytes.NewReader(buf.Bytes()), cutfit.SessionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		rep, err := se.Run(context.Background(), named["g"], s, parts, "cc", 0)
		if err != nil {
			b.Fatal(err)
		}
		restore += t1.Sub(t0)
		run += time.Since(t1)
		if rep.Components != want.Components {
			b.Fatalf("restored cc found %d components, want %d", rep.Components, want.Components)
		}
		if st := se.CacheStats(); st.Misses != 0 {
			b.Fatalf("restart recomputed %d artifacts: %+v", st.Misses, st)
		}
	}
	b.ReportMetric(float64(restore.Microseconds())/1e3/float64(b.N), "restore_ms")
	b.ReportMetric(float64(run.Microseconds())/1e3/float64(b.N), "run_ms")
}

// rmat16 is the 524,288-edge R-MAT graph (scale 16, 8 edges per vertex)
// the loader benchmarks share.
func rmat16(b *testing.B) *cutfit.Graph {
	g, err := gen.RMAT(gen.DefaultRMAT(16, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchRestoreVsRebuild(b *testing.B, g *cutfit.Graph) {
	s := cutfit.EdgePartition2D()
	const parts = 128

	// One warm session produces both durable forms: the spilled disk-tier
	// entries and the snapshot file.
	dir := b.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	warm := cutfit.NewSession(cutfit.SessionOptions{DiskDir: cacheDir})
	if _, err := warm.Assignment(g, s, parts); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Partition(g, s, parts); err != nil {
		b.Fatal(err)
	}
	if n, err := warm.Flush(); err != nil || n < 2 {
		b.Fatalf("Flush wrote %d entries, err %v", n, err)
	}
	snapPath := filepath.Join(dir, "bench.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.SnapshotNamed(f, map[string]*cutfit.Graph{"g": g}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			se := cutfit.NewSession(cutfit.SessionOptions{DiskDir: cacheDir})
			b.StartTimer()
			if _, err := se.Partition(g, s, parts); err != nil {
				b.Fatal(err)
			}
			if stats := se.CacheStats(); stats.DiskHits != 1 {
				b.Fatalf("disk tier did not serve the topology: %+v", stats)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			se := cutfit.NewSession(cutfit.SessionOptions{})
			b.StartTimer()
			if _, err := se.Partition(g, s, parts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("restart", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			se, named, err := cutfit.RestoreSession(f, cutfit.SessionOptions{})
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			rg := named["g"]
			if _, err := se.Assignment(rg, s, parts); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(rg, s, parts); err != nil {
				b.Fatal(err)
			}
			if stats := se.CacheStats(); stats.Misses != 0 {
				b.Fatalf("restart recomputed %d artifacts: %+v", stats.Misses, stats)
			}
		}
	})

	b.Run("restart-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A restart without durability: the graph object is cold (no
			// derived views) and the whole pipeline recomputes.
			cold := cutfit.FromEdges(append([]cutfit.Edge(nil), g.Edges()...))
			se := cutfit.NewSession(cutfit.SessionOptions{})
			if _, err := se.Assignment(cold, s, parts); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(cold, s, parts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadEdgeList measures text ingest: the rmat16 graph rendered as
// SNAP-style "src\tdst" lines (what every benchmark set-up and the CLI
// load path parse) through LoadEdgeList, reported in MB/s of text. It fails
// when an ingest allocates more than 2.2 × the edge array it returns — the
// parsed slabs, the array, and the chunks of text in flight, which grow with
// the cores parsing them: beyond four the bound is not applied.
func BenchmarkReadEdgeList(b *testing.B) {
	g := rmat16(b)
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		got, err := cutfit.LoadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if got.NumEdges() != g.NumEdges() {
			b.Fatalf("parsed %d edges of %d", got.NumEdges(), g.NumEdges())
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
	edgeArray := float64(g.NumEdges()) * float64(unsafe.Sizeof(cutfit.Edge{}))
	if perOp > 2.2*edgeArray && runtime.GOMAXPROCS(0) <= 4 {
		b.Fatalf("an ingest allocated %.1f MB, %.2f × the %.1f MB edge array; want at most 2.2 ×", perOp/1e6, perOp/edgeArray, edgeArray/1e6)
	}
}

// BenchmarkTailorCold is one operation of the tailor-cold benchmark
// workload (benchmark/w_tailor.go) inside the test binary, so that one CPU
// or memory profile covers the whole cold path: the rmat16 text through
// LoadEdgeList, a fresh caching Session, Select over the six paper
// strategies at 64 partitions and ten PageRank iterations on the winner.
func BenchmarkTailorCold(b *testing.B) {
	g := rmat16(b)
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		b.Fatal(err)
	}
	const parts = 64
	ctx := context.Background()
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	for b.Loop() {
		got, err := cutfit.LoadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		se := cutfit.NewSession(cutfit.SessionOptions{})
		sel, err := se.Select(got, cutfit.Strategies(), parts, cutfit.ProfilePageRank)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := se.Run(ctx, got, sel.Strategy, parts, "pagerank", 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.TopRanks) == 0 {
			b.Fatal("no ranks reported")
		}
	}
}
