package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/store"
	"cutfit/internal/testutil"
)

// selectEmpiricallyRef is SelectEmpirically as it was before candidates
// were measured concurrently, kept as the oracle: one candidate after the
// other, without a store, stopping at the first that fails. It also returns
// the winner's assignment.
func selectEmpiricallyRef(g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, *partition.Assignment, error) {
	sel := &Selection{Results: make(map[string]*metrics.Result, len(candidates))}
	var winner *partition.Assignment
	bestVal := 0.0
	for _, s := range candidates {
		a, err := partition.Assign(g, s, numParts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: measuring %s: %w", s.Name(), err)
		}
		m, err := metrics.FromAssignment(a)
		if err != nil {
			return nil, nil, fmt.Errorf("core: measuring %s: %w", s.Name(), err)
		}
		sel.Results[partition.KeyOf(s)] = m
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, nil, err
		}
		if sel.Strategy == nil || v < bestVal {
			sel.Strategy, winner, bestVal = s, a, v
		}
	}
	return sel, winner, nil
}

// selectionEdges is a skewed multigraph, big enough to span many 256-edge
// blocks.
func selectionEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	x := uint64(7)
	for i := range edges {
		x = x*6364136223846793005 + 1442695040888963407
		src := (x >> 33) % 900
		x = x*6364136223846793005 + 1442695040888963407
		dst := (x >> 33) % 900
		if i%3 == 0 {
			dst %= 25
		}
		edges[i] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	}
	return edges
}

// TestSelectConcurrentMatchesSequential: whatever order the candidates
// finish in, Select returns what measuring them one after the other returns —
// every metric of every candidate, the same winner, the same assignment left
// in the store — on dense, tombstoned and block-backed graphs, with one
// goroutine and with eight.
func TestSelectConcurrentMatchesSequential(t *testing.T) {
	edges := selectionEdges(6000)
	retract := []graph.Edge{edges[3], edges[700], edges[4100]}
	graphs := map[string]func() *graph.Graph{
		"dense": func() *graph.Graph { return graph.FromEdges(slices.Clone(edges)) },
		"tombstoned": func() *graph.Graph {
			g, _, err := graph.FromEdges(slices.Clone(edges)).Shrink(retract)
			if err != nil || g.NumDeadEdges() == 0 {
				t.Fatalf("shrink: %v, %d dead", err, g.NumDeadEdges())
			}
			return g
		},
		"block": func() *graph.Graph {
			bb := graph.NewBlockBuilder(256)
			bb.Append(edges)
			return graph.FromBlocks(bb.Finish())
		},
		"block tombstoned": func() *graph.Graph {
			bb := graph.NewBlockBuilder(256)
			bb.Append(edges)
			g, _, err := graph.FromBlocks(bb.Finish()).Shrink(retract)
			if err != nil || !g.BlockBacked() || g.NumDeadEdges() == 0 {
				t.Fatalf("shrink: %v, block-backed %t", err, g.BlockBacked())
			}
			return g
		},
	}
	for name, build := range graphs {
		for _, candidates := range [][]partition.Strategy{partition.All(), partition.Extended()} {
			for _, p := range []Profile{ProfilePageRank, ProfileTR} {
				want, b, err := selectEmpiricallyRef(build(), candidates, 16, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 8} {
					testutil.SetGOMAXPROCS(t, workers)
					st := store.New(store.Config{})
					// A fresh graph per selection: none of them finds a view
					// an earlier one built.
					g := build()
					got, err := SelectEmpirically(st, g, candidates, 16, p)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s, %d candidates, %s", name, len(candidates), p.Name)
					if got.Strategy.Name() != want.Strategy.Name() {
						t.Errorf("%s: chose %s, sequentially %s", where, got.Strategy.Name(), want.Strategy.Name())
					}
					if !reflect.DeepEqual(got.Results, want.Results) {
						t.Errorf("%s: metric sets differ from the sequential ones", where)
					}
					misses := st.Stats().Misses
					a, err := st.Assignment(g, got.Strategy, 16)
					if err != nil {
						t.Fatal(err)
					}
					if st.Stats().Misses != misses {
						t.Errorf("%s: the winner's assignment is not in the store", where)
					}
					if a.Strategy != b.Strategy || a.NumParts != b.NumParts ||
						!slices.Equal(a.PIDs, b.PIDs) || !slices.Equal(a.EdgesPerPart, b.EdgesPerPart) {
						t.Errorf("%s: the winner's assignment differs from the sequential one", where)
					}
				}
			}
		}
	}
}

// stagedStrategy is a candidate that fails, or assigns as inner does, and
// can be made to finish in a chosen order: before runs when its Partition
// starts, after when it returns.
type stagedStrategy struct {
	name          string
	inner         partition.Strategy // nil: Partition fails
	before, after func()
}

func (s stagedStrategy) Name() string { return s.name }

func (s stagedStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	if s.before != nil {
		s.before()
	}
	if s.after != nil {
		defer s.after()
	}
	if s.inner == nil {
		return nil, fmt.Errorf("%s refuses", s.name)
	}
	return s.inner.Partition(g, numParts)
}

// TestCandidateOrderDecides: the order candidates are listed in decides
// between equals, never the order they finish in. With eight goroutines the
// later candidate of each pair is made to finish first — the earlier one
// waits for it — and the outcome must be that of one goroutine, where they
// run in order: a tie goes to the earlier candidate, and of two failures the
// earlier is the one reported.
func TestCandidateOrderDecides(t *testing.T) {
	edges := selectionEdges(3000)
	g := graph.FromEdges(edges)
	for _, parallelism := range []int{1, 8} {
		testutil.SetGOMAXPROCS(t, parallelism)
		// pair returns the hooks that make the second of two candidates
		// finish before the first starts assigning.
		pair := func() (waitForSecond, secondDone func()) {
			if parallelism == 1 {
				return nil, nil // they run in candidate order: nothing to wait for
			}
			done := make(chan struct{})
			return func() { <-done }, func() { close(done) }
		}
		for _, tc := range []struct {
			name       string
			candidates func() []partition.Strategy
			winner     string
			err        string
		}{
			{
				name: "a tie goes to the earlier candidate",
				candidates: func() []partition.Strategy {
					wait, done := pair()
					return []partition.Strategy{
						stagedStrategy{name: "worse", inner: partition.RandomVertexCut()},
						stagedStrategy{name: "first of two equals", inner: partition.EdgePartition2D(), before: wait},
						stagedStrategy{name: "second of two equals", inner: partition.EdgePartition2D(), after: done},
					}
				},
				winner: "first of two equals",
			},
			{
				name: "only a strictly smaller metric displaces",
				candidates: func() []partition.Strategy {
					wait, done := pair()
					return []partition.Strategy{
						stagedStrategy{name: "first", inner: partition.EdgePartition2D(), before: wait},
						stagedStrategy{name: "worse", inner: partition.RandomVertexCut(), after: done},
						stagedStrategy{name: "equal to first", inner: partition.EdgePartition2D()},
					}
				},
				winner: "first",
			},
			{
				name: "of two failures the earlier is reported",
				candidates: func() []partition.Strategy {
					wait, done := pair()
					return []partition.Strategy{
						stagedStrategy{name: "fine", inner: partition.EdgePartition2D()},
						stagedStrategy{name: "fails first in order", before: wait},
						stagedStrategy{name: "also fine", inner: partition.SourceCut()},
						stagedStrategy{name: "fails first in time", after: done},
					}
				},
				err: "core: measuring fails first in order: fails first in order refuses",
			},
		} {
			st := store.New(store.Config{})
			sel, err := SelectEmpirically(st, g, tc.candidates(), 16, ProfilePageRank)
			switch {
			case tc.err != "":
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s, parallelism %d: error %v, want %s", tc.name, parallelism, err, tc.err)
				}
			case err != nil:
				t.Errorf("%s, parallelism %d: %v", tc.name, parallelism, err)
			case sel.Strategy.Name() != tc.winner:
				t.Errorf("%s, parallelism %d: chose %s, want %s", tc.name, parallelism, sel.Strategy.Name(), tc.winner)
			}
		}
	}
}
