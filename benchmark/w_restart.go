package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// restart is the warm-restart workload: set-up snapshots a session holding
// the 524k-edge graph, the six paper assignments with their metric sets and
// the 2D topology; one operation opens that file, restores a session from
// it and runs cc on the restored graph. The file was just written, so reads
// come from the page cache — the operation is decode and re-validation, not
// disk.
type restart struct {
	ctx            context.Context
	edges          []graph.Edge
	snapPath       string
	wantComponents int
	stats          cutfit.CacheStats
	ops            int
}

func setupRestart(ctx context.Context, e *env) (instance, error) {
	g, err := genGraph(scaleG524k, e.seed)
	if err != nil {
		return nil, err
	}
	r := &restart{ctx: ctx, edges: g.Edges(), wantComponents: countComponents(g)}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	if _, err := se.Select(g, cutfit.Strategies(), numParts, cutfit.ProfilePageRank); err != nil {
		return nil, err
	}
	if _, err := se.Partition(g, mustStrategy(fixedStrategy), numParts); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	r.snapPath = filepath.Join(e.outDir, "warm-restart.snap")
	f, err := os.Create(r.snapPath)
	if err != nil {
		return nil, err
	}
	_, err = se.SnapshotNamed(f, map[string]*cutfit.Graph{graphName: g})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(r.snapPath)
		return nil, err
	}
	return r, nil
}

func (r *restart) close() { os.Remove(r.snapPath) }

func (r *restart) op(rec *recorder, traceID, parent int) (verifyFunc, error) {
	step := func(layer, name string, fn func() error) error {
		_, err := rec.do(traceID, parent, layer, name, fn)
		return err
	}
	var se *cutfit.Session
	var named map[string]*cutfit.Graph
	if err := step("store", "RestoreSession", func() error {
		f, err := os.Open(r.snapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		se, named, err = cutfit.RestoreSession(f, cutfit.SessionOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	g := named[graphName]
	if g == nil {
		return nil, fmt.Errorf("snapshot restored no graph named %q", graphName)
	}
	var rep *cutfit.RunReport
	if err := step("store", "Session.Run(cc)", func() (err error) {
		rep, err = se.Run(r.ctx, g, mustStrategy(fixedStrategy), numParts, "cc", 0)
		return err
	}); err != nil {
		return nil, err
	}
	st := se.CacheStats()
	addStats(&r.stats, st)
	r.ops++
	return func() (int, int, []string) {
		var notes []string
		bad := 0
		if rep.Components != r.wantComponents {
			bad++
			notes = append(notes, fmt.Sprintf("MISMATCH restored cc found %d components, want %d", rep.Components, r.wantComponents))
		}
		if st.Misses != 0 {
			bad++
			notes = append(notes, fmt.Sprintf("MISMATCH restored session recomputed %d artifacts", st.Misses))
		}
		return 2, bad, notes
	}, nil
}

func (r *restart) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m := opWindow(d, minTracedOps, func(int) (verifyFunc, error) { return r.op(nil, 0, 0) })
	m.notes = append(m.notes, "snapshot reads come from the page cache (the file was written in set-up)")
	return m, nil
}

// replay decodes the snapshot with the codec's public functions, one span
// per record, then runs cc on the decoded topology.
func (r *restart) replay(rec *recorder, traceID int) (float64, error) {
	root := rec.begin(traceID, 0, "benchmark", "replay")
	defer rec.end(root)
	var total float64
	step := func(layer, name string, fn func() error) error {
		ms, err := rec.do(traceID, root, layer, name, fn)
		total += ms
		return err
	}
	var data []byte
	if err := step("store", "read snapshot file", func() (err error) {
		data, err = os.ReadFile(r.snapPath)
		return err
	}); err != nil {
		return 0, err
	}
	var graphs []snap.StoreGraph
	var artifacts []snap.StoreArtifact
	if err := step("snap", "DecodeStore", func() (err error) {
		graphs, artifacts, err = snap.DecodeStore(data)
		return err
	}); err != nil {
		return 0, err
	}
	decoded := make([]*graph.Graph, len(graphs))
	for i, sg := range graphs {
		if err := step("snap", "DecodeGraph", func() (err error) {
			decoded[i], err = snap.DecodeGraph(sg.Data)
			return err
		}); err != nil {
			return 0, err
		}
	}
	var pg *pregel.PartitionedGraph
	for _, art := range artifacts {
		g := decoded[art.GraphIndex]
		var err error
		switch art.Stage {
		case snap.StageAssignment:
			err = step("snap", "DecodeAssignment."+art.StrategyKey, func() error {
				_, err := snap.DecodeAssignment(art.Data, g, art.StrategyKey)
				return err
			})
		case snap.StageMetrics:
			err = step("snap", "DecodeMetrics."+art.StrategyKey, func() error {
				_, err := snap.DecodeMetrics(art.Data, g, art.StrategyKey)
				return err
			})
		case snap.StageTopology:
			err = step("snap", "DecodeTopology."+art.StrategyKey, func() (err error) {
				pg, err = snap.DecodeTopology(art.Data, g, art.StrategyKey, pregel.BuildOptions{ReuseBuffers: true})
				return err
			})
		}
		if err != nil {
			return 0, err
		}
	}
	if pg == nil {
		return 0, fmt.Errorf("snapshot holds no topology")
	}
	err := step("algorithms", "ConnectedComponents", func() error {
		_, _, err := algorithms.ConnectedComponents(r.ctx, pg, 0)
		return err
	})
	return total, err
}

func (r *restart) traced(ctx context.Context, d time.Duration, rec *recorder) (*tracedPart, error) {
	scratch, err := markScratch()
	if err != nil {
		return nil, err
	}
	part, err := tracedOps(d, rec,
		func(int) (verifyFunc, error) { return r.op(nil, 0, 0) }, nil,
		func(i int, rec *recorder) (float64, float64, verifyFunc, error) {
			traceID := i + 1
			root := rec.begin(traceID, 0, "cutfit", "warm-restart op")
			verify, err := r.op(rec, traceID, root)
			sessionMs := rec.end(root)
			if err != nil {
				return 0, 0, nil, err
			}
			rec.count(traceID, "store.hits", float64(r.stats.Hits))
			replayMs, err := r.replay(rec, traceID)
			return sessionMs, replayMs, verify, err
		})
	if err != nil {
		return nil, err
	}
	storeVals(part.vals, r.stats, r.ops)
	if err := scratch.setReuse(part.vals); err != nil {
		return nil, err
	}
	part.notes = append(part.notes, "snapshot reads come from the page cache (the file was written in set-up)")
	part.edges = r.edges
	part.text = snapText(r.edges)
	return part, nil
}
