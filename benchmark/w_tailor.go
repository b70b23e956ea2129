package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// tailor is the tailor-cold workload: the paper's workflow from text to
// result with nothing cached. One operation = LoadEdgeList(text) → fresh
// Session → Select over the six paper strategies → Run pagerank with the
// winner.
type tailor struct {
	ctx          context.Context
	edges        []graph.Edge
	text         []byte
	wantStrategy string
	wantRanks    *rankOracle
	// stats accumulates the per-operation sessions' cache counters.
	stats cutfit.CacheStats
	ops   int
}

func setupTailor(ctx context.Context, e *env) (instance, error) {
	g, err := genGraph(scaleG524k, e.seed)
	if err != nil {
		return nil, err
	}
	t := &tailor{ctx: ctx, edges: g.Edges()}
	t.text = snapText(t.edges)
	if t.wantStrategy, err = selectOracle(g, cutfit.ProfilePageRank.Metric); err != nil {
		return nil, err
	}
	t.wantRanks = newRankOracle(g, algorithms.PageRankSeq(g, pagerankIters, algorithms.DefaultResetProb))
	// The winner's topology must satisfy the partition invariants before
	// anything is timed on it.
	a, err := partition.Assign(g, mustStrategy(t.wantStrategy), numParts)
	if err != nil {
		return nil, err
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		return nil, err
	}
	if err := checkTopology(g, a, pg); err != nil {
		return nil, fmt.Errorf("%s topology: %w", t.wantStrategy, err)
	}
	return t, nil
}

func (t *tailor) close() {}

func (t *tailor) verify(strategy string, rep *cutfit.RunReport) verifyFunc {
	return func() (int, int, []string) {
		var notes []string
		bad := 0
		if strategy != t.wantStrategy {
			bad++
			notes = append(notes, fmt.Sprintf("MISMATCH select chose %s, arg-min CommCost is %s", strategy, t.wantStrategy))
		}
		if err := t.wantRanks.check(rep.TopRanks, pagerankRelTol); err != nil {
			bad++
			notes = append(notes, "MISMATCH pagerank: "+err.Error())
		}
		return 2, bad, notes
	}
}

// op is one operation through the public API, optionally with a span around
// each of its four calls.
func (t *tailor) op(rec *recorder, traceID, parent int) (verifyFunc, error) {
	step := func(layer, name string, fn func() error) error {
		_, err := rec.do(traceID, parent, layer, name, fn)
		return err
	}
	var g *cutfit.Graph
	if err := step("graph", "cutfit.LoadEdgeList", func() (err error) {
		g, err = cutfit.LoadEdgeList(bytes.NewReader(t.text))
		return err
	}); err != nil {
		return nil, err
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	var sel *cutfit.Selection
	if err := step("core", "Session.Select", func() (err error) {
		sel, err = se.Select(g, cutfit.Strategies(), numParts, cutfit.ProfilePageRank)
		return err
	}); err != nil {
		return nil, err
	}
	var rep *cutfit.RunReport
	if err := step("store", "Session.Run", func() (err error) {
		rep, err = se.Run(t.ctx, g, sel.Strategy, numParts, "pagerank", pagerankIters)
		return err
	}); err != nil {
		return nil, err
	}
	addStats(&t.stats, se.CacheStats())
	t.ops++
	return t.verify(sel.Strategy.Name(), rep), nil
}

func (t *tailor) measure(ctx context.Context, d time.Duration) (*measured, error) {
	return opWindow(d, minTracedOps, func(int) (verifyFunc, error) { return t.op(nil, 0, 0) }), nil
}

// replay performs the operation's work as direct calls into each layer and
// returns the sum of the layer spans in milliseconds.
func (t *tailor) replay(rec *recorder, traceID int) (float64, error) {
	root := rec.begin(traceID, 0, "benchmark", "replay")
	defer rec.end(root)
	var total float64
	step := func(layer, name string, fn func() error) error {
		ms, err := rec.do(traceID, root, layer, name, fn)
		total += ms
		return err
	}
	var g *graph.Graph
	if err := step("graph", "ReadEdgeList", func() (err error) {
		g, err = graph.ReadEdgeList(bytes.NewReader(t.text))
		return err
	}); err != nil {
		return 0, err
	}
	var winner *partition.Assignment
	var best int64
	for _, name := range paperStrategies {
		var a *partition.Assignment
		if err := step("partition", "Assign."+name, func() (err error) {
			a, err = partition.Assign(g, mustStrategy(name), numParts)
			return err
		}); err != nil {
			return 0, err
		}
		var m *metrics.Result
		if err := step("metrics", "FromAssignment."+name, func() (err error) {
			m, err = metrics.FromAssignment(a)
			return err
		}); err != nil {
			return 0, err
		}
		if winner == nil || m.CommCost < best {
			winner, best = a, m.CommCost
		}
	}
	var pg *pregel.PartitionedGraph
	if err := step("pregel", "NewPartitionedGraphFromAssignment", func() (err error) {
		pg, err = pregel.NewPartitionedGraphFromAssignment(winner, pregel.BuildOptions{ReuseBuffers: true})
		return err
	}); err != nil {
		return 0, err
	}
	err := step("algorithms", "PageRank", func() error {
		_, _, err := algorithms.PageRank(t.ctx, pg, pagerankIters, algorithms.DefaultResetProb)
		return err
	})
	return total, err
}

func (t *tailor) traced(ctx context.Context, d time.Duration, rec *recorder) (*tracedPart, error) {
	scratch, err := markScratch()
	if err != nil {
		return nil, err
	}
	part, err := tracedOps(d, rec,
		func(int) (verifyFunc, error) { return t.op(nil, 0, 0) }, nil,
		func(i int, rec *recorder) (float64, float64, verifyFunc, error) {
			traceID := i + 1
			root := rec.begin(traceID, 0, "cutfit", "tailor-cold op")
			verify, err := t.op(rec, traceID, root)
			sessionMs := rec.end(root)
			if err != nil {
				return 0, 0, nil, err
			}
			rec.count(traceID, "store.misses", float64(t.stats.Misses))
			replayMs, err := t.replay(rec, traceID)
			return sessionMs, replayMs, verify, err
		})
	if err != nil {
		return nil, err
	}
	storeVals(part.vals, t.stats, t.ops)
	if err := scratch.setReuse(part.vals); err != nil {
		return nil, err
	}
	part.edges, part.text = t.edges, t.text
	return part, nil
}
