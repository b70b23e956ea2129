package dist

import (
	"context"
	"fmt"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// wiring is one cluster-run entry of the served-algorithm table with its
// value and message types erased — the two closures that still know them: the
// coordinator's side (the program on pg's out-degree table, its supersteps
// exchanged over the pool) and the worker's (the same program on the shard's
// shipped table, with the width of a vertex value in its frames).
type wiring struct {
	run   func(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, spec RunSpec) (any, *pregel.RunStats, error)
	shard func(spec RunSpec, ws *workerShard) (run shardRun, valSize int, err error)
}

// wire closes runDist and pregel.NewShardCompute over a typed vertex program.
// Both sides build the program from the run spec, after the entry's own
// parameter check — on a worker the spec came off the network.
func wire[V, M any](e *algorithms.Entry, v algorithms.Vertex[V, M]) wiring {
	build := func(spec RunSpec, degrees func() []int32) (pregel.Program[V, M], error) {
		p := algorithms.Params{Iters: spec.Iters, Tol: spec.Tol, ResetProb: spec.ResetProb}
		if err := e.Check(p); err != nil {
			return pregel.Program[V, M]{}, err
		}
		return v.Program(p, degrees), nil
	}
	return wiring{
		run: func(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, spec RunSpec) (any, *pregel.RunStats, error) {
			prog, err := build(spec, pg.G.OutDegrees)
			if err != nil {
				return nil, nil, err
			}
			vals, stats, err := runDist(ctx, pool, pg, prog, spec, v.VC, v.MC)
			if err != nil {
				return nil, nil, err
			}
			return v.Values(vals), stats, nil
		},
		shard: func(spec RunSpec, ws *workerShard) (shardRun, int, error) {
			prog, err := build(spec, func() []int32 { return ws.outDeg })
			if err != nil {
				return nil, 0, err
			}
			sc, err := pregel.NewShardCompute(prog, ws.topo, v.VC, v.MC)
			if err != nil {
				return nil, 0, err
			}
			return sc, v.VC.Size(), nil
		},
	}
}

// wired is the wiring of every table entry that carries a Vertex, by name.
// Go has no generic methods, so the types are recovered by the shapes the
// frames can carry: an entry of a new shape needs its case here, and the
// package refuses to initialise until it has one.
var wired = func() map[string]wiring {
	m := make(map[string]wiring)
	for _, e := range algorithms.ClusterServed() {
		switch v := e.Vertex.(type) {
		case algorithms.Vertex[float64, float64]:
			m[e.Name] = wire(e, v)
		case algorithms.Vertex[graph.VertexID, graph.VertexID]:
			m[e.Name] = wire(e, v)
		case algorithms.Vertex[algorithms.PRState, float64]:
			m[e.Name] = wire(e, v)
		default:
			panic(fmt.Sprintf("dist: no wiring for %s's %T", e.Name, e.Vertex))
		}
	}
	return m
}()

func wiringFor(alg string) (wiring, error) {
	w, ok := wired[alg]
	if !ok {
		return wiring{}, fmt.Errorf("dist: the cluster does not run %q (it runs %s)", alg, algorithms.NameList(algorithms.ClusterServed(), "and"))
	}
	return w, nil
}

// Run executes a table entry's program on the pool and returns the values
// Entry.Run would, bit-identical like the statistics.
func Run(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, e *algorithms.Entry, p algorithms.Params) (any, *pregel.RunStats, error) {
	w, err := wiringFor(e.Name)
	if err != nil {
		return nil, nil, err
	}
	return w.run(ctx, pool, pg, RunSpec{Algorithm: e.Name, Iters: p.Iters, Tol: p.Tol, ResetProb: p.ResetProb})
}
