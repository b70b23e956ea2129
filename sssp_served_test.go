package cutfit_test

import (
	"context"
	"runtime"
	"testing"

	"cutfit"
	"cutfit/internal/gen"
)

// servedSSSP returns a function that serves one sssp request from a warm
// Session — the serve-hot benchmark's shape: an R-MAT graph of 8·2^scale
// edges (262k at scale 15) under 2D at 64 partitions, the topology cached and
// one scratch parked — checked against the first reply.
func servedSSSP(tb testing.TB, scale int) func() {
	tb.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 8, 1))
	if err != nil {
		tb.Fatal(err)
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	ctx := context.Background()
	var want *cutfit.RunReport
	run := func() {
		rep, err := se.Run(ctx, g, cutfit.EdgePartition2D(), 64, "sssp", 0)
		if err != nil {
			tb.Fatal(err)
		}
		if want == nil {
			want = rep
		}
		if rep.Reached != want.Reached || rep.Supersteps != want.Supersteps || rep.Reached == 0 {
			tb.Fatalf("reached %d in %d supersteps, first reply %d in %d", rep.Reached, rep.Supersteps, want.Reached, want.Supersteps)
		}
	}
	run() // cold: partition, build, frontier index
	run() // warm: revives the parked scratch
	return run
}

// TestServedSSSPAllocs: a warm sssp request allocates per superstep and per
// partition — the statistics that escape into RunStats, the result table —
// never per vertex, per edge or per message. The map-valued program this
// replaced made 295,600 allocations (27.5 MB) for the same request at scale
// 15.
func TestServedSSSPAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 262k-edge topology")
	}
	measure := func(scale int) (objects, bytes float64) {
		run := servedSSSP(t, scale)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, _ := measure(13)
	objects, bytes := measure(15)
	t.Logf("warm sssp at scale 15: %.0f objects, %.0f KiB per request (scale 13: %.0f objects)", objects, bytes/1024, small)
	if objects > 1000 || bytes > 1<<20 {
		t.Errorf("a warm sssp request allocates %.0f objects and %.0f bytes, budget 1000 and 1 MiB", objects, bytes)
	}
	// Four times the graph may run a superstep or two longer; it must not
	// cost an object per anything that scales with the graph.
	if objects > small+100 {
		t.Errorf("allocations grow with the graph: %.0f at scale 13, %.0f at scale 15", small, objects)
	}
}

// BenchmarkServedSSSP is one warm Session.Run("sssp") on the serve-hot graph
// (262k edges, 2D, 64 partitions); allocs/op is the gated number.
func BenchmarkServedSSSP(b *testing.B) {
	run := servedSSSP(b, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
