// Multi-core scaling benchmark: a compact worker sweep over the topology
// build and a frontier algorithm, so a change that serializes either hot
// path shows up as a w-max ns/op regression.
package cutfit_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cutfit"
)

// BenchmarkScalingSweep times the engine-side components whose hot loops
// the per-partition workers parallelize — topology build and connected
// components — at one worker and at GOMAXPROCS. On multi-core machines the
// w1/wmax ratio is the scaling signal.
func BenchmarkScalingSweep(b *testing.B) {
	g := benchGraph(b, "youtube")
	const numParts = 64
	ctx := context.Background()
	workers := []int{1, runtime.GOMAXPROCS(0)}
	if workers[1] == 1 {
		workers = workers[:1]
	}

	a, err := cutfit.PartitionAssignment(g, cutfit.EdgePartition2D(), numParts)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workers {
		b.Run(benchWorkerName("build", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cutfit.PartitionFromAssignment(a, cutfit.PartitionOptions{Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, w := range workers {
		b.Run(benchWorkerName("cc", w), func(b *testing.B) {
			pg, err := cutfit.PartitionFromAssignment(a, cutfit.PartitionOptions{Parallelism: w, ReuseBuffers: true})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := cutfit.RunConnectedComponents(ctx, pg, 50); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cutfit.RunConnectedComponents(ctx, pg, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerName names a sweep cell w1/w2/... so benchstat matches cells
// across machines with the same core count.
func benchWorkerName(component string, workers int) string {
	return fmt.Sprintf("%s-w%d", component, workers)
}
