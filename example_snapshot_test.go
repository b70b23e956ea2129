package cutfit_test

import (
	"bytes"
	"fmt"

	"cutfit"
)

// ExampleSession_SnapshotNamed persists a warmed session — measured metrics and
// a built engine topology — and restores it into a "new process": the
// restored session answers the same requests as pure cache hits, so a
// restart costs one read instead of a re-partition.
func ExampleSession_SnapshotNamed() {
	g := cutfit.FromEdges([]cutfit.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 2},
	})
	strat := cutfit.EdgePartition2D()
	const parts = 4

	se := cutfit.NewSession(cutfit.SessionOptions{})
	m, err := se.Measure(g, strat, parts)
	if err != nil {
		panic(err)
	}
	if _, err := se.Partition(g, strat, parts); err != nil {
		panic(err)
	}

	// Persist the whole cache (graph included, labeled for the registry).
	var buf bytes.Buffer
	if _, err := se.SnapshotNamed(&buf, map[string]*cutfit.Graph{"demo": g}); err != nil {
		panic(err)
	}

	// "Restart": restore into a fresh session and re-ask.
	se2, named, err := cutfit.RestoreSession(&buf, cutfit.SessionOptions{})
	if err != nil {
		panic(err)
	}
	m2, err := se2.Measure(named["demo"], strat, parts)
	if err != nil {
		panic(err)
	}
	if _, err := se2.Partition(named["demo"], strat, parts); err != nil {
		panic(err)
	}

	stats := se2.CacheStats()
	fmt.Println("comm cost preserved:", m2.CommCost == m.CommCost)
	fmt.Println("recomputed artifacts:", stats.Misses)
	fmt.Println("served from restored cache:", stats.Hits)
	// Output:
	// comm cost preserved: true
	// recomputed artifacts: 0
	// served from restored cache: 2
}
