package cutfit_test

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cutfit"
	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// peakHeapMB runs f while a background sampler tracks live heap, and
// returns the peak heap growth over the post-GC baseline in MiB. The
// sampler's ReadMemStats stop-the-world pauses are microseconds against
// pipeline stages that run for seconds, so the wall-clock numbers the
// benchmark reports alongside stay honest.
func peakHeapMB(f func()) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var s runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&s)
				if s.HeapAlloc > peak {
					peak = s.HeapAlloc
				}
			}
		}
	}()
	f()
	close(stop)
	<-done
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	return float64(peak-base) / (1 << 20)
}

// runScalePipeline is one end-to-end out-of-core serving pass: load the
// R-MAT edge stream into the chosen tier, stream a one-pass greedy
// assignment over it, build the partitioned topology, and run five
// PageRank supersteps. The dense tier is the in-memory []Edge baseline;
// the block tier is the out-of-core configuration the tentpole ships —
// the generator streams into compressed blocks which are spilled to disk
// and served back from the file, so edge payloads never stay heap-resident
// past the load. Peak heap over the whole pass is reported as peak-heap-MB
// next to ns/op, which is what the dense-vs-block acceptance ratio keys
// off.
func runScalePipeline(b *testing.B, cfg gen.RMATConfig, block bool) {
	s, err := cutfit.StrategyByName("Greedy")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	path := filepath.Join(b.TempDir(), "scale.cfb")
	var peak float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		peak = peakHeapMB(func() {
			var g *graph.Graph
			var err error
			if block {
				g, err = gen.RMATBlocks(cfg, 0)
				if err == nil {
					err = cutfit.SaveBlockGraph(path, g)
				}
				if err != nil {
					b.Fatal(err)
				}
				var closer io.Closer
				g, closer, err = cutfit.OpenBlockGraph(path)
				if err != nil {
					b.Fatal(err)
				}
				defer closer.Close()
			} else {
				g, err = gen.RMAT(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			a, err := partition.Assign(g, s, 16)
			if err != nil {
				b.Fatal(err)
			}
			pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(5)); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(peak, "peak-heap-MB")
}

// BenchmarkScale is the out-of-core bench family: each size runs the full
// pipeline twice, once per edge tier, so one bench invocation yields the
// dense-vs-block peak-heap and wall-clock ratios directly. Both sizes run
// nightly via `make bench-scale`. Sub-bench names are chosen so a
// "BenchmarkScale/1M" filter cannot accidentally match the 10M cells.
func BenchmarkScale(b *testing.B) {
	cells := []struct {
		name string
		cfg  gen.RMATConfig
	}{
		{"1M", gen.DefaultRMAT(16, 16, 42)},  // 2^16 vertices × 16 = 1,048,576 edges
		{"10M", gen.DefaultRMAT(19, 20, 42)}, // 2^19 vertices × 20 = 10,485,760 edges
	}
	for _, c := range cells {
		b.Run(c.name+"/dense", func(b *testing.B) { runScalePipeline(b, c.cfg, false) })
		b.Run(c.name+"/block", func(b *testing.B) { runScalePipeline(b, c.cfg, true) })
	}
}

// BenchmarkScaleXL is the opt-in 100M-edge cell (block tier only — the
// dense twin would need multiple GiB of headroom). It never runs in PR
// CI: `make bench-scale-xl` sets CUTFIT_SCALE_XL, everything else skips.
func BenchmarkScaleXL(b *testing.B) {
	if os.Getenv("CUTFIT_SCALE_XL") == "" {
		b.Skip("set CUTFIT_SCALE_XL=1 (make bench-scale-xl) to run the 100M-edge cell")
	}
	cfg := gen.DefaultRMAT(22, 24, 42) // 2^22 vertices × 24 = 100,663,296 edges
	b.Run("100M/block", func(b *testing.B) { runScalePipeline(b, cfg, true) })
}
