package main

import (
	"bytes"
	"reflect"
	"testing"

	"cutfit/internal/graph"
)

// A small scale keeps the test fast; the generator and the text encoder do
// not branch on size.
const testScale = 10

func inputsFor(t *testing.T, seed uint64) ([]byte, [][]graph.Edge) {
	t.Helper()
	g, err := genGraph(testScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	_, batches := streamBatches(g.Edges())
	return snapText(g.Edges()), batches
}

func TestSameSeedSameInputs(t *testing.T) {
	text1, batches1 := inputsFor(t, 7)
	text2, batches2 := inputsFor(t, 7)
	if !bytes.Equal(text1, text2) {
		t.Error("same seed produced different SNAP text")
	}
	if !reflect.DeepEqual(batches1, batches2) {
		t.Error("same seed produced different batches")
	}
	text3, batches3 := inputsFor(t, 8)
	if bytes.Equal(text1, text3) {
		t.Error("different seeds produced identical SNAP text")
	}
	if reflect.DeepEqual(batches1, batches3) {
		t.Error("different seeds produced identical batches")
	}
}

func TestSnapTextIsWhatTheSystemParses(t *testing.T) {
	g, err := genGraph(testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.ReadEdgeList(bytes.NewReader(snapText(g.Edges())))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Edges(), g.Edges()) {
		t.Error("text round trip changed the edge list")
	}
}

func TestStreamBatchesPartitionTheTail(t *testing.T) {
	g, err := genGraph(testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	seed, batches := streamBatches(edges)
	if len(seed) != len(edges)*3/4 {
		t.Errorf("seed holds %d of %d edges, want three quarters", len(seed), len(edges))
	}
	// A quarter of the graph in 0.5 % steps: 50 batches, give or take the
	// rounding of the batch size.
	if want := (len(edges) - len(seed)) / (len(edges) / 200); len(batches) != want || want < 50 {
		t.Errorf("%d batches, want %d (at least 50)", len(batches), want)
	}
	next := len(seed)
	for i, b := range batches {
		if len(b) != len(edges)/200 {
			t.Fatalf("batch %d holds %d edges, want %d", i, len(b), len(edges)/200)
		}
		if &b[0] != &edges[next] {
			t.Fatalf("batch %d does not start where batch %d ended", i, i-1)
		}
		next += len(b)
	}
}
