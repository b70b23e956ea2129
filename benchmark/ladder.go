package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/cluster"
	"cutfit/internal/core"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// sample is one reported value with the number of timings behind it.
type sample struct {
	v float64
	n int
}

// values collects metric values by name.
type values map[string]sample

func (vs values) set(name string, v float64, n int) { vs[name] = sample{v, n} }

func (vs values) merge(o values) {
	for k, s := range o {
		vs[k] = s
	}
}

// Repetition policy of the ladder: up to ladderReps timings of each call,
// fewer once a call has used ladderBudget (a 3 s triangle count is timed
// once, a 5 ms assignment three times). The reported value is the median.
const (
	ladderReps   = 3
	ladderBudget = 600 * time.Millisecond
)

// ladderTrace is the trace id the ladder's spans are filed under; workload
// operations count from 1.
const ladderTrace = 0

// ladder times every in-process layer's public entry points directly, on
// the workload's own graph, and reads the engine's exact counts off the
// RunStats. It is the same sequence for every workload, so each layer's
// cost is known at each workload's graph size; the workload's own spans
// (its trace file) say how much of an operation each layer is.
type ladder struct {
	ctx    context.Context
	rec    *recorder
	parent int
	// outcome holds the ladder's values and its own correctness assertions.
	outcome
}

// time runs fn under a span up to ladderReps times and returns the median
// duration in milliseconds.
func (l *ladder) time(layer, name string, fn func() error) (float64, int, error) {
	var ms []float64
	var spent time.Duration
	for len(ms) < ladderReps && (len(ms) == 0 || spent < ladderBudget) {
		d, err := l.rec.do(ladderTrace, l.parent, layer, name, fn)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		ms = append(ms, d)
		spent += time.Duration(d * 1e6)
	}
	return median(ms), len(ms), nil
}

func (l *ladder) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		l.notes = append(l.notes, "MISMATCH ladder: "+fmt.Sprintf(format, args...))
	}
}

// runLadder measures every in-process layer on the graph with the given
// edges (and its SNAP text). scratchDir receives the snapshot and disk-tier
// files, which are removed again.
func runLadder(ctx context.Context, rec *recorder, edges []graph.Edge, text []byte, scratchDir string) (*ladder, error) {
	l := &ladder{ctx: ctx, rec: rec, outcome: outcome{vals: make(values)}}
	l.parent = rec.begin(ladderTrace, 0, "benchmark", "ladder")
	defer rec.end(l.parent)

	// graph: text ingest.
	var g *graph.Graph
	ingestMs, n, err := l.time("graph", "ReadEdgeList", func() (err error) {
		g, err = graph.ReadEdgeList(bytes.NewReader(text))
		return err
	})
	if err != nil {
		return nil, err
	}
	l.vals.set("graph.ingest_ms", ingestMs, n)
	l.vals.set("graph.ingest_mb_per_s", float64(len(text))/1e6/(ingestMs/1e3), n)
	l.check(g.NumEdges() == len(edges), "ingest parsed %d edges of %d", g.NumEdges(), len(edges))

	// partition + metrics: the six paper strategies.
	assigns := make(map[string]*partition.Assignment)
	var assignSum, metricsSum float64
	for _, name := range paperStrategies {
		s := mustStrategy(name)
		ms, n, err := l.time("partition", "Assign."+name, func() (err error) {
			assigns[name], err = partition.Assign(g, s, numParts)
			return err
		})
		if err != nil {
			return nil, err
		}
		l.vals.set("partition.assign_ms."+name, ms, n)
		assignSum += ms
		mms, _, err := l.time("metrics", "FromAssignment."+name, func() error {
			_, err := metrics.FromAssignment(assigns[name])
			return err
		})
		if err != nil {
			return nil, err
		}
		metricsSum += mms
	}
	l.vals.set("metrics.from_assignment_ms", metricsSum, len(paperStrategies))

	// pregel: cold build of the 2D topology.
	s2d := mustStrategy(fixedStrategy)
	a2d := assigns[fixedStrategy]
	var pg *pregel.PartitionedGraph
	buildMs, n, err := l.time("pregel", "NewPartitionedGraphFromAssignment", func() (err error) {
		pg, err = pregel.NewPartitionedGraphFromAssignment(a2d, pregel.BuildOptions{ReuseBuffers: true})
		return err
	})
	if err != nil {
		return nil, err
	}
	l.vals.set("pregel.build_ms", buildMs, n)
	if err := checkTopology(g, a2d, pg); err != nil {
		l.check(false, "2D topology invariants: %v", err)
	} else {
		l.check(true, "")
	}

	// core: selection overhead on top of its assign and metrics children,
	// and the heuristic advisor.
	selMs, n, err := l.time("core", "Session.Select", func() error {
		_, err := cutfit.NewSession(cutfit.SessionOptions{}).Select(g, cutfit.Strategies(), numParts, cutfit.ProfilePageRank)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.vals.set("core.select_self_ms", selMs-assignSum-metricsSum, n)
	advMs, n, _ := l.time("core", "Facts+DetectIDLocality+Advise", func() error {
		f := core.Facts(g)
		f.IDLocality = core.DetectIDLocality(g, 256, 0.5)
		core.Advise(core.ProfilePageRank, f, numParts, core.DefaultAdvisorConfig())
		return nil
	})
	l.vals.set("core.advise_ms", advMs, n)

	if err := l.algorithms(g, pg); err != nil {
		return nil, err
	}
	if err := l.snapshots(g, pg); err != nil {
		return nil, err
	}
	rebuildBase := ingestMs + assignSum + metricsSum + buildMs
	if err := l.store(g, edges, s2d, buildMs, rebuildBase, scratchDir); err != nil {
		return nil, err
	}
	if err := l.deltas(edges, s2d); err != nil {
		return nil, err
	}
	return l, nil
}

// algorithms runs the five served algorithms directly on the prebuilt
// topology and reads their exact work counts.
func (l *ladder) algorithms(g *graph.Graph, pg *pregel.PartitionedGraph) error {
	landmark := []graph.VertexID{g.Vertices()[0]}
	run := map[string]func() (*pregel.RunStats, error){
		"pagerank": func() (*pregel.RunStats, error) {
			_, st, err := algorithms.PageRank(l.ctx, pg, pagerankIters, algorithms.DefaultResetProb)
			return st, err
		},
		"cc": func() (*pregel.RunStats, error) {
			_, st, err := algorithms.ConnectedComponents(l.ctx, pg, 0)
			return st, err
		},
		"dynamicpr": func() (*pregel.RunStats, error) {
			_, st, err := algorithms.DynamicPageRank(l.ctx, pg, dynamicPRTol, algorithms.DefaultResetProb, 0)
			return st, err
		},
		"sssp": func() (*pregel.RunStats, error) {
			_, st, err := algorithms.ShortestPaths(l.ctx, pg, landmark, 0)
			return st, err
		},
		"triangles": func() (*pregel.RunStats, error) {
			_, st, err := algorithms.TriangleCount(l.ctx, pg)
			return st, err
		},
	}
	cfg := cluster.ConfigI()
	cfg.NumPartitions = numParts
	for _, alg := range algNames {
		var st *pregel.RunStats
		ms, n, err := l.time("algorithms", alg, func() (err error) {
			st, err = run[alg]()
			return err
		})
		if err != nil {
			return err
		}
		l.vals.set("algorithms.run_ms."+alg, ms, n)
		scanned, examined := st.TotalEdgesScanned(), st.TotalActiveEdges()
		l.vals.set("pregel.supersteps."+alg, float64(st.NumSupersteps()), 1)
		l.vals.set("pregel.edges_scanned."+alg, float64(scanned), 1)
		l.vals.set("pregel.active_edges."+alg, float64(examined), 1)
		l.vals.set("pregel.net_msgs."+alg, float64(st.TotalBroadcastMsgs()+st.TotalReduceMsgs()), 1)
		useful := 0.0
		if examined > 0 {
			useful = float64(scanned) / float64(examined)
		}
		l.vals.set("pregel.scan_useful_frac."+alg, useful, 1)
		b, err := cfg.Simulate(st, cluster.EstimateGraphBytes(g.NumEdges()))
		if err != nil {
			return err
		}
		l.vals.set("cluster.model_error_ratio."+alg, b.TotalSecs()/(ms/1e3), n)
		if alg == "pagerank" {
			l.vals.set("pregel.medges_per_s.pagerank", float64(scanned)/1e6/(ms/1e3), n)
			l.vals.set("pregel.compute_imbalance.pagerank", computeImbalance(st), 1)
		}
	}
	return nil
}

// computeImbalance is the busiest partition's compute cost over the mean
// partition's, summed over the run: the BSP straggler factor.
func computeImbalance(st *pregel.RunStats) float64 {
	var per []float64
	for i := range st.Supersteps {
		c := st.Supersteps[i].ComputePerPart
		if per == nil {
			per = make([]float64, len(c))
		}
		for p, v := range c {
			per[p] += v
		}
	}
	var max float64
	for _, v := range per {
		if v > max {
			max = v
		}
	}
	mean := sum(per) / float64(len(per))
	if mean == 0 {
		return 0
	}
	return max / mean
}

// snapshots times the durable codec on the graph and its 2D topology.
func (l *ladder) snapshots(g *graph.Graph, pg *pregel.PartitionedGraph) error {
	var eg, et []byte
	ms, n, _ := l.time("snap", "EncodeGraph", func() error { eg = snap.EncodeGraph(g); return nil })
	l.vals.set("snap.encode_graph_ms", ms, n)
	dg, n, err := l.time("snap", "DecodeGraph", func() error { _, err := snap.DecodeGraph(eg); return err })
	if err != nil {
		return err
	}
	l.vals.set("snap.decode_graph_ms", dg, n)
	ms, n, _ = l.time("snap", "EncodeTopology", func() error { et = snap.EncodeTopology(pg, fixedStrategy); return nil })
	l.vals.set("snap.encode_topology_ms", ms, n)
	dt, n, err := l.time("snap", "DecodeTopology", func() error {
		_, err := snap.DecodeTopology(et, g, fixedStrategy, pregel.BuildOptions{})
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("snap.decode_topology_ms", dt, n)
	l.vals.set("snap.decode_mb_per_s", float64(len(eg)+len(et))/1e6/((dg+dt)/1e3), n)
	return nil
}

// store times the Session paths: the cache's own overhead, a warm lookup,
// whole-session snapshot and restore, and a disk-tier hit.
func (l *ladder) store(g *graph.Graph, edges []graph.Edge, s2d partition.Strategy, buildMs, rebuildBase float64, scratchDir string) error {
	assign2D := l.vals["partition.assign_ms."+fixedStrategy].v

	var warm *cutfit.Session
	coldMs, n, err := l.time("store", "Session.Partition(cold)", func() error {
		warm = cutfit.NewSession(cutfit.SessionOptions{})
		_, err := warm.Partition(g, s2d, numParts)
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("store.overhead_ms", coldMs-assign2D-buildMs, n)

	const hits = 2000
	id := l.rec.begin(ladderTrace, l.parent, "store", "Session.Partition(hit) x2000")
	for i := 0; i < hits; i++ {
		if _, err := warm.Partition(g, s2d, numParts); err != nil {
			return err
		}
	}
	l.vals.set("store.resolve_hit_us", l.rec.end(id)*1e3/hits, hits)

	// A session as warm-restart snapshots it: six assignments with their
	// metric sets and the 2D topology.
	if _, err := warm.Select(g, cutfit.Strategies(), numParts, cutfit.ProfilePageRank); err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	snapPath := filepath.Join(scratchDir, "ladder.snap")
	defer os.Remove(snapPath)
	var sum cutfit.SnapshotSummary
	ms, n, err := l.time("store", "Session.SnapshotNamed", func() error {
		f, err := os.Create(snapPath)
		if err != nil {
			return err
		}
		sum, err = warm.SnapshotNamed(f, map[string]*cutfit.Graph{graphName: g})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("store.persist_ms", ms, n)
	l.vals.set("store.snapshot_mb", float64(sum.Bytes)/(1<<20), 1)

	var restored *cutfit.Session
	var named map[string]*cutfit.Graph
	restoreMs, n, err := l.time("store", "RestoreSession", func() error {
		f, err := os.Open(snapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		restored, named, err = cutfit.RestoreSession(f, cutfit.SessionOptions{})
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("store.restore_ms", restoreMs, n)
	l.vals.set("store.restore_over_rebuild", restoreMs/rebuildBase, n)
	l.notes = append(l.notes, fmt.Sprintf("store.restore_over_rebuild base: ingest + 6 assign + 6 metrics + build = %.1f ms", rebuildBase))
	if _, err := restored.Partition(named[graphName], s2d, numParts); err != nil {
		return err
	}
	l.check(restored.CacheStats().Misses == 0, "restored session recomputed %d artifacts", restored.CacheStats().Misses)

	// Disk tier: flush a warm session, then time a fresh session over the
	// same directory serving an identical, newly registered graph.
	diskDir := filepath.Join(scratchDir, "ladder-disk")
	defer os.RemoveAll(diskDir)
	flushed := cutfit.NewSession(cutfit.SessionOptions{DiskDir: diskDir})
	if _, err := flushed.Partition(g, s2d, numParts); err != nil {
		return err
	}
	if _, err := flushed.Flush(); err != nil {
		return err
	}
	var diskHits int64
	ms, n, err = l.time("store", "Session.Partition(disk hit)", func() error {
		twin := graph.FromEdges(append([]graph.Edge(nil), edges...))
		se := cutfit.NewSession(cutfit.SessionOptions{DiskDir: diskDir})
		_, err := se.Partition(twin, s2d, numParts)
		diskHits = se.CacheStats().DiskHits
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("store.disk_hit_ms", ms, n)
	l.check(diskHits >= 1, "disk tier served %d hits", diskHits)
	return nil
}

// deltas times one append step and one retraction step, layer by layer,
// against the cold assign+build of the same generation. The batch is the
// last 0.5 % of the graph's edges; the base is the rest.
func (l *ladder) deltas(edges []graph.Edge, s partition.Strategy) error {
	cut := len(edges) - len(edges)/200
	base := graph.FromEdges(append([]graph.Edge(nil), edges[:cut]...))
	batch := edges[cut:]
	a0, err := partition.Assign(base, s, numParts)
	if err != nil {
		return err
	}
	pg0, err := pregel.NewPartitionedGraphFromAssignment(a0, pregel.BuildOptions{ReuseBuffers: true})
	if err != nil {
		return err
	}

	var g1 *graph.Graph
	var d1 graph.Delta
	ms, n, _ := l.time("graph", "Grow", func() error { g1, d1 = base.Grow(batch); return nil })
	l.vals.set("graph.grow_ms", ms, n)
	var a1 *partition.Assignment
	extendMs, n, err := l.time("partition", "Assignment.Extend", func() (err error) { a1, err = a0.Extend(g1, s); return err })
	if err != nil {
		return err
	}
	l.vals.set("partition.extend_ms", extendMs, n)
	var pg1 *pregel.PartitionedGraph
	patchMs, n, err := l.time("pregel", "ApplyDelta(append)", func() error {
		remap, err := graph.RemapVertices(d1.OldVerts, g1)
		if err != nil {
			return err
		}
		pg1, err = pg0.ApplyDelta(a1, remap)
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("pregel.patch_append_ms", patchMs, n)

	var rebuilt *pregel.PartitionedGraph
	rebuildMs, _, err := l.time("pregel", "Assign+build(same generation)", func() error {
		a, err := partition.Assign(g1, s, numParts)
		if err != nil {
			return err
		}
		rebuilt, err = pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("pregel.patch_over_rebuild", (extendMs+patchMs)/rebuildMs, n)
	l.notes = append(l.notes, fmt.Sprintf("pregel.patch_over_rebuild base: cold assign + build of the grown generation = %.1f ms", rebuildMs))
	pm, rm := pg1.Metrics(), rebuilt.Metrics()
	l.check(pm.CommCost == rm.CommCost && pm.Cut == rm.Cut && pm.NonCut == rm.NonCut,
		"patched topology CommCost %d, rebuilt %d", pm.CommCost, rm.CommCost)

	var g2 *graph.Graph
	var d2 graph.Delta
	ms, n, err = l.time("graph", "Shrink", func() (err error) { g2, d2, err = g1.Shrink(batch); return err })
	if err != nil {
		return err
	}
	l.vals.set("graph.shrink_ms", ms, n)
	a2, err := a1.Extend(g2, s)
	if err != nil {
		return err
	}
	var pg2 *pregel.PartitionedGraph
	ms, n, err = l.time("pregel", "ApplyDelta(shrink)", func() error {
		remap, err := graph.RemapVertices(d2.OldVerts, g2)
		if err != nil {
			return err
		}
		pg2, err = pg1.ApplyDelta(a2, remap)
		return err
	})
	if err != nil {
		return err
	}
	l.vals.set("pregel.patch_shrink_ms", ms, n)
	l.check(pg2.Metrics().CommCost == pg0.Metrics().CommCost,
		"append then retract left CommCost %d, base has %d", pg2.Metrics().CommCost, pg0.Metrics().CommCost)
	return nil
}
