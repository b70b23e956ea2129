package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/store"
)

// selectEmpiricallyRef is SelectEmpiricallyIn as it was before candidates
// were measured concurrently, kept as the oracle: one candidate after the
// other, stopping at the first that fails.
func selectEmpiricallyRef(g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, error) {
	sel := &Selection{Results: make(map[string]*metrics.Result, len(candidates))}
	bestVal := 0.0
	for _, s := range candidates {
		a, err := partition.Assign(g, s, numParts)
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s: %w", s.Name(), err)
		}
		m, err := metrics.FromAssignment(a)
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s: %w", s.Name(), err)
		}
		sel.Results[partition.KeyOf(s)] = m
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, err
		}
		if sel.Strategy == nil || v < bestVal {
			sel.Strategy, sel.Assignment, bestVal = s, a, v
		}
	}
	return sel, nil
}

// storeOf returns a store whose builds — and so whose candidate fan-out —
// use the given number of goroutines.
func storeOf(parallelism int) *store.Store {
	return store.New(store.Config{Build: pregel.BuildOptions{Parallelism: parallelism}})
}

// selectionEdges is a skewed multigraph with a weighted minority, big enough
// to span many 256-edge blocks.
func selectionEdges(n int) ([]graph.Edge, []float64) {
	edges := make([]graph.Edge, n)
	weights := make([]float64, n)
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
		weights[i] = 1
		if i%11 == 0 {
			weights[i] = 0.25 + float64(i%7)
		}
	}
	return edges, weights
}

// TestSelectConcurrentMatchesSequential: whatever order the candidates
// finish in, Select returns what measuring them one after the other returns —
// every metric of every candidate, the same winner, the same assignment — on
// dense, tombstoned and block-backed graphs, weighted and not, with one
// goroutine and with eight, through a store and without.
func TestSelectConcurrentMatchesSequential(t *testing.T) {
	edges, weights := selectionEdges(6000)
	retract := []graph.Edge{edges[3], edges[700], edges[4100]}
	graphs := map[string]func() *graph.Graph{
		"dense": func() *graph.Graph { return graph.FromEdges(slices.Clone(edges)) },
		"dense weighted": func() *graph.Graph {
			g, err := graph.FromWeightedEdges(slices.Clone(edges), slices.Clone(weights))
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"tombstoned": func() *graph.Graph {
			g, _, err := graph.FromEdges(slices.Clone(edges)).Shrink(retract)
			if err != nil || g.NumDeadEdges() == 0 {
				t.Fatalf("shrink: %v, %d dead", err, g.NumDeadEdges())
			}
			return g
		},
		"block": func() *graph.Graph {
			bb := graph.NewBlockBuilder(256)
			bb.Append(edges, nil)
			return graph.FromBlocks(bb.Finish())
		},
		"block weighted tombstoned": func() *graph.Graph {
			bb := graph.NewBlockBuilder(256)
			bb.Append(edges, weights)
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
				want, err := selectEmpiricallyRef(build(), candidates, 16, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range []*store.Store{nil, storeOf(1), storeOf(8)} {
					// A fresh graph per selection: none of them finds a view
					// an earlier one built.
					got, err := SelectEmpiricallyIn(st, build(), candidates, 16, p)
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
					a, b := got.Assignment, want.Assignment
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
	edges, _ := selectionEdges(3000)
	g := graph.FromEdges(edges)
	for _, parallelism := range []int{1, 8} {
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
			for _, st := range []*store.Store{nil, storeOf(parallelism)} {
				if st == nil && parallelism != 1 {
					continue // without a store the fan-out is the machine's: staged only with a store
				}
				sel, err := SelectEmpiricallyIn(st, g, tc.candidates(), 16, ProfilePageRank)
				switch {
				case tc.err != "":
					if err == nil || err.Error() != tc.err {
						t.Errorf("%s, parallelism %d: error %v, want %s", tc.name, parallelism, err, tc.err)
					}
				case err != nil:
					t.Errorf("%s, parallelism %d: %v", tc.name, parallelism, err)
				case sel.Strategy.Name() != tc.winner || sel.Assignment.Strategy != tc.winner:
					t.Errorf("%s, parallelism %d: chose %s with the assignment of %s, want %s",
						tc.name, parallelism, sel.Strategy.Name(), sel.Assignment.Strategy, tc.winner)
				}
				if tc.err == "" {
					continue
				}
				_, _, err = TrainPredictorIn(st, g, tc.candidates(), 16, ProfilePageRank, map[string]float64{"fine": 1, "also fine": 2})
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s, parallelism %d: TrainPredictor error %v, want %s", tc.name, parallelism, err, tc.err)
				}
			}
		}
	}
}

// countingStrategy counts its Partition calls.
type countingStrategy struct {
	partition.Strategy
	calls *atomic.Int64
}

func (c countingStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	c.calls.Add(1)
	return c.Strategy.Partition(g, numParts)
}

// TestTrainPredictorMeasuresOnce: training after a selection over the same
// store re-measures nothing, and training alone assigns each candidate once.
func TestTrainPredictorMeasuresOnce(t *testing.T) {
	edges, _ := selectionEdges(3000)
	g := graph.FromEdges(edges)
	var calls atomic.Int64
	var candidates []partition.Strategy
	for _, s := range partition.All() {
		candidates = append(candidates, countingStrategy{s, &calls})
	}
	times := map[string]float64{"RVC": 3, "2D": 1, "DC": 2}
	st := storeOf(8)
	pred, results, err := TrainPredictorIn(st, g, candidates, 16, ProfilePageRank, times)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(candidates)) {
		t.Fatalf("training ran %d assignment passes for %d candidates", got, len(candidates))
	}
	if _, err := SelectEmpiricallyIn(st, g, candidates, 16, ProfilePageRank); err != nil {
		t.Fatal(err)
	}
	again, _, err := TrainPredictorIn(st, g, candidates, 16, ProfilePageRank, times)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(candidates)) {
		t.Fatalf("selecting and training again re-assigned: %d passes for %d candidates", got, len(candidates))
	}
	direct, directResults, err := TrainPredictor(g, partition.All(), 16, ProfilePageRank, times)
	if err != nil {
		t.Fatal(err)
	}
	if *pred != *direct || *again != *direct || !reflect.DeepEqual(results, directResults) {
		t.Fatalf("the store's predictor %v (again %v) differs from the direct one %v", pred, again, direct)
	}
}
