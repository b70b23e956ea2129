package graph_test

import (
	"bytes"
	"context"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/store"
)

// TestCCLeavesDegreesUnbuilt: cc divides by no degree, so a cc run on a
// freshly restored graph — cold through Entry.Run and through the
// answer-keeping Entry.Resume a Session uses — never builds the O(|E|)
// out-degree table. pagerank and dynamicpr, which do read it, return the
// same bits on the restored topology as on the graph it was persisted from.
func TestCCLeavesDegreesUnbuilt(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := partition.EdgePartition2D()
	st := store.New(store.Config{})
	built, err := st.Built(g, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.Persist(&buf, map[string]*graph.Graph{"g": g}); err != nil {
		t.Fatal(err)
	}
	restore := func() (*graph.Graph, *pregel.PartitionedGraph) {
		t.Helper()
		rs := store.New(store.Config{})
		named, err := rs.Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rg := named["g"]
		pg, err := rs.Built(rg, s, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Stats().Misses != 0 || graph.DegreesBuilt(rg) {
			t.Fatal("the restore recomputed an artifact or built the degrees")
		}
		return rg, pg
	}
	cc, err := algorithms.Lookup("cc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rg, pg := restore()
	if _, _, err := cc.Run(ctx, pg, algorithms.ServedParams(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cc.Resume(ctx, pg, algorithms.ServedParams(0), nil); err != nil {
		t.Fatal(err)
	}
	if graph.DegreesBuilt(rg) {
		t.Fatal("a cc run built the restored graph's out-degree table")
	}

	for _, name := range []string{"pagerank", "dynamicpr"} {
		e, err := algorithms.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rg, pg := restore()
		want, _, err := e.Run(ctx, built, algorithms.ServedParams(10))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.Run(ctx, pg, algorithms.ServedParams(10))
		if err != nil {
			t.Fatal(err)
		}
		if !graph.DegreesBuilt(rg) {
			t.Fatalf("%s ran without the out-degree table", name)
		}
		w, r := want.([]float64), got.([]float64)
		if len(w) != len(r) {
			t.Fatalf("%s: %d values on the restored topology, %d on the original", name, len(r), len(w))
		}
		for i := range w {
			if w[i] != r[i] {
				t.Fatalf("%s: vertex %d ranks %v restored, %v originally", name, i, r[i], w[i])
			}
		}
	}
}
