package main

import (
	"context"
	"fmt"
	"time"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

const (
	// streamLag is how many cycles a batch stays in the graph before it is
	// retracted, so four batches are live at any time.
	streamLag = 4
	// streamCacheBytes bounds the session's artifact cache. Each generation
	// retains roughly 18 MiB of assignment and topology, two generations per
	// cycle; half the default budget makes LRU eviction of old generations
	// start within the first ten cycles, inside both passes' windows.
	streamCacheBytes = 256 << 20
)

// stream is the stream-update workload: a caching Session holds the first
// three quarters of the 1M-edge graph with a warm 2D topology; one cycle
// appends the next 0.5 % batch and runs cc on the new generation, then
// retracts the batch appended streamLag cycles earlier and runs cc again.
// When the batches run out they are reused in order — each was retracted
// long before it comes round again.
type stream struct {
	ctx     context.Context
	se      *cutfit.Session
	s2d     cutfit.Strategy
	cur     *cutfit.Graph
	seed    []graph.Edge
	batches [][]graph.Edge
	cycle   int // cycles completed, warm-up included
	// appendMs and retractMs are the two halves of each timed cycle.
	appendMs, retractMs []float64
}

func setupStream(ctx context.Context, e *env) (instance, error) {
	g, err := genGraph(scaleG1M, e.seed)
	if err != nil {
		return nil, err
	}
	s := &stream{
		ctx: ctx,
		se:  cutfit.NewSession(cutfit.SessionOptions{MaxCacheBytes: streamCacheBytes}),
		s2d: mustStrategy(fixedStrategy),
	}
	s.seed, s.batches = streamBatches(g.Edges())
	s.cur = cutfit.FromEdges(append([]graph.Edge(nil), s.seed...))
	// Warm the topology, then run the append-only lead-in so that every
	// timed cycle has a batch to retract.
	rep, err := s.se.Run(ctx, s.cur, s.s2d, numParts, "cc", 0)
	if err != nil {
		return nil, err
	}
	if want := countComponents(s.cur); rep.Components != want {
		return nil, fmt.Errorf("cc on the seed graph found %d components, want %d", rep.Components, want)
	}
	for ; s.cycle < streamLag; s.cycle++ {
		if s.cur, err = s.se.AppendEdges(s.cur, s.batch(s.cycle)); err != nil {
			return nil, err
		}
		if _, err := s.se.Run(ctx, s.cur, s.s2d, numParts, "cc", 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stream) close() {}

func (s *stream) batch(cycle int) []graph.Edge { return s.batches[cycle%len(s.batches)] }

func verifyComponents(what string, g *cutfit.Graph, rep *cutfit.RunReport) (int, []string) {
	if want := countComponents(g); rep.Components != want {
		return 1, []string{fmt.Sprintf("MISMATCH %s: cc found %d components, want %d", what, rep.Components, want)}
	}
	return 0, nil
}

// op is one cycle through the Session, optionally with spans.
func (s *stream) op(rec *recorder, traceID, parent int) (verifyFunc, error) {
	step := func(layer, name string, fn func() error) (float64, error) {
		return rec.do(traceID, parent, layer, name, fn)
	}
	var grown, shrunk *cutfit.Graph
	var repA, repB *cutfit.RunReport
	appendMs, err := step("store", "AppendEdges+Run(cc)", func() (err error) {
		if grown, err = s.se.AppendEdges(s.cur, s.batch(s.cycle)); err != nil {
			return err
		}
		repA, err = s.se.Run(s.ctx, grown, s.s2d, numParts, "cc", 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	retractMs, err := step("store", "RemoveEdges+Run(cc)", func() (err error) {
		if shrunk, err = s.se.RemoveEdges(grown, s.batch(s.cycle-streamLag)); err != nil {
			return err
		}
		repB, err = s.se.Run(s.ctx, shrunk, s.s2d, numParts, "cc", 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.appendMs = append(s.appendMs, appendMs)
	s.retractMs = append(s.retractMs, retractMs)
	s.cur = shrunk
	s.cycle++
	return func() (int, int, []string) {
		badA, notesA := verifyComponents("after append", grown, repA)
		badB, notesB := verifyComponents("after retract", shrunk, repB)
		return 2, badA + badB, append(notesA, notesB...)
	}, nil
}

func (s *stream) halvesNote() string {
	return fmt.Sprintf("cycle halves: append+cc p50 %.2f ms, retract+cc p50 %.2f ms (n=%d)",
		median(s.appendMs), median(s.retractMs), len(s.appendMs))
}

func (s *stream) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m := opWindow(d, minTracedOps, func(int) (verifyFunc, error) { return s.op(nil, 0, 0) })
	m.notes = append(m.notes, s.halvesNote())
	return m, nil
}

// streamChain is the traced pass's own copy of the evolving graph: the same
// seed and the same batches as the Session's, advanced by direct calls into
// each layer, one generation behind none. Replaying on a separate chain
// (rather than on siblings of the Session's generations) keeps both on the
// path a stream really takes: each generation is grown exactly once.
type streamChain struct {
	g  *graph.Graph
	a  *partition.Assignment
	pg *pregel.PartitionedGraph
}

// newChain brings a fresh chain to the state set-up left the Session in:
// the seed plus the lead-in batches, assigned and built cold.
func (s *stream) newChain() (*streamChain, error) {
	g := graph.FromEdges(append([]graph.Edge(nil), s.seed...))
	for c := 0; c < streamLag; c++ {
		g, _ = g.Grow(s.batch(c))
	}
	a, err := partition.Assign(g, s.s2d, numParts)
	if err != nil {
		return nil, err
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		return nil, err
	}
	return &streamChain{g: g, a: a, pg: pg}, nil
}

// replay advances the chain by the given cycle as direct layer calls —
// Grow, Extend, ApplyDelta, cc, then Shrink, Extend, ApplyDelta, cc — and
// returns the sum of the layer spans in milliseconds. With a nil recorder
// it advances the chain without recording (the baseline iterations).
func (s *stream) replay(ch *streamChain, cycle int, rec *recorder, traceID int) (float64, error) {
	root := 0
	if rec != nil {
		root = rec.begin(traceID, 0, "benchmark", "replay")
		defer rec.end(root)
	}
	var total float64
	step := func(layer, name string, fn func() error) error {
		ms, err := rec.do(traceID, root, layer, name, fn)
		total += ms
		return err
	}
	// advance derives the next generation's assignment and topology the way
	// the store's delta path does, falling back to the cold path where the
	// delta cannot be applied (a compaction boundary), and runs cc on it.
	advance := func(kind string, g *graph.Graph, d graph.Delta) error {
		var a *partition.Assignment
		if err := step("partition", "Assignment.Extend", func() (err error) {
			if d.Compacted {
				a, err = partition.Assign(g, s.s2d, numParts)
			} else {
				a, err = ch.a.Extend(g, s.s2d)
			}
			return err
		}); err != nil {
			return err
		}
		var pg *pregel.PartitionedGraph
		if err := step("pregel", "ApplyDelta("+kind+")", func() error {
			if !d.Compacted {
				if remap, err := graph.RemapVertices(d.OldVerts, g); err == nil {
					if pg, err = ch.pg.ApplyDelta(a, remap); err == nil {
						return nil
					}
				}
			}
			var err error
			pg, err = pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
			return err
		}); err != nil {
			return err
		}
		ch.g, ch.a, ch.pg = g, a, pg
		return step("algorithms", "ConnectedComponents", func() error {
			_, _, err := algorithms.ConnectedComponents(s.ctx, pg, 0)
			return err
		})
	}

	var g *graph.Graph
	var d graph.Delta
	_ = step("graph", "Grow", func() error { g, d = ch.g.Grow(s.batch(cycle)); return nil })
	if err := advance("append", g, d); err != nil {
		return 0, err
	}
	if err := step("graph", "Shrink", func() (err error) {
		g, d, err = ch.g.Shrink(s.batch(cycle - streamLag))
		return err
	}); err != nil {
		return 0, err
	}
	return total, advance("shrink", g, d)
}

func (s *stream) traced(ctx context.Context, d time.Duration, rec *recorder) (*tracedPart, error) {
	scratch, err := markScratch()
	if err != nil {
		return nil, err
	}
	ch, err := s.newChain()
	if err != nil {
		return nil, err
	}
	stats0 := s.se.CacheStats()
	cycles0 := s.cycle
	part, err := tracedOps(d, rec,
		func(int) (verifyFunc, error) { return s.op(nil, 0, 0) },
		// The chain follows the untraced cycles too, unrecorded.
		func() error { _, err := s.replay(ch, s.cycle-1, nil, 0); return err },
		func(i int, rec *recorder) (float64, float64, verifyFunc, error) {
			traceID := i + 1
			cycle := s.cycle
			root := rec.begin(traceID, 0, "cutfit", "stream-update cycle")
			verify, err := s.op(rec, traceID, root)
			sessionMs := rec.end(root)
			if err != nil {
				return 0, 0, nil, err
			}
			st := s.se.CacheStats()
			rec.count(traceID, "store.delta_derived", float64(st.DeltaDerived))
			rec.count(traceID, "store.evictions", float64(st.Evictions))
			rec.count(traceID, "store.bytes", float64(st.Bytes))
			replayMs, err := s.replay(ch, cycle, rec, traceID)
			return sessionMs, replayMs, verify, err
		})
	if err != nil {
		return nil, err
	}
	storeVals(part.vals, statsSince(s.se.CacheStats(), stats0), s.cycle-cycles0)
	if err := scratch.setReuse(part.vals); err != nil {
		return nil, err
	}
	part.notes = append(part.notes, s.halvesNote())
	part.edges = s.seed
	part.text = snapText(s.seed)
	return part, nil
}
