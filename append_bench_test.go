package cutfit_test

import (
	"testing"

	"cutfit"
	"cutfit/internal/datasets"
)

// BenchmarkAppendEdges compares the two ways a serving system can absorb
// an appended edge batch (1% of the youtube analog, 128 partitions, 2D):
//
//   - delta: the session derives the new generation's artifacts from the
//     warm parent — suffix-only assignment, patched topology;
//   - rebuild: the grown edge list arrives as a fresh graph that no
//     cached artifact belongs to, so it pays the full pipeline (vertex
//     index, endpoint views, strategy pass, sort/scatter build).
//
// The acceptance bar for the delta path is ≥ 5× over rebuild.
func BenchmarkAppendEdges(b *testing.B) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		b.Fatal(err)
	}
	full, err := spec.BuildCached()
	if err != nil {
		b.Fatal(err)
	}
	edges := full.Edges()
	cut := len(edges) - len(edges)/100
	base, delta := edges[:cut], edges[cut:]
	s := cutfit.EdgePartition2D()
	const parts = 128

	b.Run("delta", func(b *testing.B) {
		se := cutfit.NewSession(cutfit.SessionOptions{})
		g := cutfit.FromEdges(append([]cutfit.Edge(nil), base...))
		if _, err := se.Partition(g, s, parts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ng, err := se.AppendEdges(g, delta)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := se.Partition(ng, s, parts); err != nil {
				b.Fatal(err)
			}
			// Drop the derived generation (the base stays warm): each
			// iteration measures one append absorbed by a bounded cache.
			se.Forget(ng)
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A warm server handed base+delta as a fresh graph: nothing
			// links it to the cached base, so it pays the full assign and
			// build.
			se := cutfit.NewSession(cutfit.SessionOptions{})
			if _, err := se.Partition(cutfit.FromEdges(append([]cutfit.Edge(nil), base...)), s, parts); err != nil {
				b.Fatal(err)
			}
			g := cutfit.FromEdges(append(append([]cutfit.Edge(nil), base...), delta...))
			b.StartTimer()
			if _, err := se.Partition(g, s, parts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
