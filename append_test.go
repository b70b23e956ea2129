package cutfit_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cutfit"
	"cutfit/internal/graph"
)

// appendTestEdges builds a deterministic edge list with enough structure
// for PageRank/CC to be non-trivial, including IDs that appear only in
// late batches (so delta batches introduce genuinely new vertices).
func appendTestEdges(seed int64, nv, ne int) []cutfit.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]cutfit.Edge, ne)
	for i := range edges {
		// Later edges draw from a wider ID range.
		span := 2 + nv*(i+1)/ne
		edges[i] = cutfit.Edge{
			Src: cutfit.VertexID(r.Intn(span)),
			Dst: cutfit.VertexID(r.Intn(span)),
		}
	}
	return edges
}

// TestSessionAppendEquivalence is the end-to-end delta equivalence suite:
// streaming a graph into a Session in K random batches — running
// algorithms between batches, exactly the evolving-graph serving pattern —
// must leave the session serving artifacts bit-identical to a one-shot
// session over the full edge list: same assignment PIDs, same metric set,
// same PageRank and CC results. Runs under -race via make race.
func TestSessionAppendEquivalence(t *testing.T) {
	const parts = 16
	ctx := context.Background()
	all := appendTestEdges(3, 300, 3000)
	mustStrategy := func(name string) cutfit.Strategy {
		s, err := cutfit.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	strategies := []cutfit.Strategy{
		cutfit.EdgePartition2D(),
		cutfit.SourceCut(),
		mustStrategy("Greedy"),
		mustStrategy("HDRF"),
		mustStrategy("Hybrid:8"),
	}
	for _, s := range strategies {
		for trial := 0; trial < 2; trial++ {
			r := rand.New(rand.NewSource(int64(trial) + 77))
			// 3-5 random batch boundaries.
			k := 3 + r.Intn(3)
			cuts := map[int]bool{0: true, len(all): true}
			for len(cuts) < k+1 {
				cuts[1+r.Intn(len(all)-1)] = true
			}
			bounds := make([]int, 0, len(cuts))
			for c := range cuts {
				bounds = append(bounds, c)
			}
			sortInts(bounds)

			se := cutfit.NewSession(cutfit.SessionOptions{})
			g := cutfit.FromEdges(append([]cutfit.Edge(nil), all[:bounds[1]]...))
			for bi := 1; ; bi++ {
				// Serve between batches: warm the chain and run.
				if _, err := se.Run(ctx, g, s, parts, "pagerank", 5); err != nil {
					t.Fatalf("%s: run between batches: %v", s.Name(), err)
				}
				if bi+1 >= len(bounds) {
					break
				}
				ng, err := se.AppendEdges(g, all[bounds[bi]:bounds[bi+1]])
				if err != nil {
					t.Fatalf("%s: append: %v", s.Name(), err)
				}
				g = ng
			}
			if se.CacheStats().DeltaDerived == 0 {
				t.Fatalf("%s: streaming session never exercised the delta chain", s.Name())
			}

			// One-shot reference session over the full edge list.
			ref := cutfit.NewSession(cutfit.SessionOptions{})
			fg := cutfit.FromEdges(append([]cutfit.Edge(nil), all...))

			a, err := se.Assignment(g, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantA, err := ref.Assignment(fg, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.PIDs, wantA.PIDs) {
				t.Fatalf("%s trial %d: streamed assignment differs from one-shot", s.Name(), trial)
			}
			m, err := se.Measure(g, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := ref.Measure(fg, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, wantM) {
				t.Fatalf("%s trial %d: streamed metrics differ:\n got %+v\nwant %+v", s.Name(), trial, m, wantM)
			}
			pg, err := se.Partition(g, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			wantPG, err := ref.Partition(fg, s, parts)
			if err != nil {
				t.Fatal(err)
			}
			ranks, _, err := runAs[[]float64](ctx, pg, "pagerank", cutfit.ServedParams(8))
			if err != nil {
				t.Fatal(err)
			}
			wantRanks, _, err := runAs[[]float64](ctx, wantPG, "pagerank", cutfit.ServedParams(8))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ranks, wantRanks) {
				t.Fatalf("%s trial %d: PageRank over patched topology differs", s.Name(), trial)
			}
			cc, _, err := runAs[[]cutfit.VertexID](ctx, pg, "cc", cutfit.ServedParams(0))
			if err != nil {
				t.Fatal(err)
			}
			wantCC, _, err := runAs[[]cutfit.VertexID](ctx, wantPG, "cc", cutfit.ServedParams(0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cc, wantCC) {
				t.Fatalf("%s trial %d: CC over patched topology differs", s.Name(), trial)
			}
		}
	}
}

// TestSessionAppendConcurrentWithRuns: appending is a pure derivation, so
// it must be safe while other goroutines run algorithms against the old
// generation — and runs against old generations must stay valid after the
// append. Exercised under -race by make race.
func TestSessionAppendConcurrentWithRuns(t *testing.T) {
	const parts = 8
	ctx := context.Background()
	se := cutfit.NewSession(cutfit.SessionOptions{})
	s := cutfit.EdgePartition2D()
	g := cutfit.FromEdges(appendTestEdges(11, 150, 1500))
	if _, err := se.Run(ctx, g, s, parts, "pagerank", 3); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := se.Run(ctx, g, s, parts, "cc", 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	cur := g
	for i := 0; i < 10; i++ {
		ng, err := se.AppendEdges(cur, appendTestEdges(int64(20+i), 200, 25))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.Run(ctx, ng, s, parts, "dynamicpr", 0); err != nil {
			t.Fatal(err)
		}
		cur = ng
	}
	close(stop)
	wg.Wait()
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestThirdFieldRefused: edges have no weight, so every text loader refuses
// a line with a third field, naming the line, instead of dropping the field
// and changing what the metrics mean — numeric or not, in the first batch
// or behind a full one, on the dense and the block tier.
func TestThirdFieldRefused(t *testing.T) {
	full := strings.Repeat("1 2\n", 8192)
	loaders := map[string]func(string) error{
		"LoadEdgeList": func(in string) error {
			_, err := cutfit.LoadEdgeList(strings.NewReader(in))
			return err
		},
		"LoadEdgeListBlocks": func(in string) error {
			_, err := cutfit.LoadEdgeListBlocks(strings.NewReader(in), 64)
			return err
		},
		"StreamEdgeList": func(in string) error {
			return cutfit.StreamEdgeList(strings.NewReader(in), func([]cutfit.Edge) error { return nil })
		},
		"graph.ReadEdgeList": func(in string) error {
			_, err := graph.ReadEdgeList(strings.NewReader(in))
			return err
		},
		"graph.ReadEdgeListBlocks": func(in string) error {
			_, err := graph.ReadEdgeListBlocks(strings.NewReader(in), 0)
			return err
		},
	}
	for _, c := range []struct {
		in   string
		line int
	}{
		{"0 1\n1 2 2.5\n", 2},
		{"0 1 1\n", 1},
		{"# header\n0 1\t7 8\n", 2},
		{"0 1\n\n1 2 heavy\n", 3},
		{full + "3 4 0.5\n", 8193},
	} {
		want := fmt.Sprintf("line %d: unexpected third field", c.line)
		for name, load := range loaders {
			err := load(c.in)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "edge weights are not supported") {
				t.Errorf("%s, third field on line %d: error %v", name, c.line, err)
			}
		}
	}
	for name, load := range loaders {
		if err := load(full + "0 1\n1 2\n"); err != nil {
			t.Errorf("%s refused a two-field list: %v", name, err)
		}
	}
}
