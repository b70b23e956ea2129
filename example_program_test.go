package cutfit_test

import (
	"context"
	"fmt"

	"cutfit"
)

// ExampleRunProgram writes a new Pregel program against the public engine
// API: for every vertex, the largest vertex ID in its weakly connected
// component (the mirror image of the built-in Connected Components). Its
// OnSuperstep hook prints progress — the per-superstep view the paper used
// to attribute time.
func ExampleRunProgram() {
	g := analog("roadnet-pa")
	pg, err := cutfit.Partition(g, cutfit.CanonicalRandomVertexCut(), 32)
	if err != nil {
		panic(err)
	}

	prog := cutfit.Program[cutfit.VertexID, cutfit.VertexID]{
		Init: func(id cutfit.VertexID) cutfit.VertexID { return id },
		VProg: func(id cutfit.VertexID, val, msg cutfit.VertexID) cutfit.VertexID {
			return max(val, msg)
		},
		SendMsg: func(t *cutfit.Triplet[cutfit.VertexID], emit cutfit.MessageEmitter[cutfit.VertexID]) {
			// Push the larger label both ways: the graph is treated as
			// undirected, exactly like Connected Components. Only the
			// endpoint values matter here; a program that needs per-vertex
			// data indexes a table by t.SrcIdx / t.DstIdx (dense positions
			// in g.Vertices(), e.g. g.OutDegrees()[t.SrcIdx]), and
			// t.SrcID() / t.DstID() give the vertex IDs themselves.
			if t.SrcVal > t.DstVal {
				emit.ToDst(t.SrcVal)
			} else if t.DstVal > t.SrcVal {
				emit.ToSrc(t.DstVal)
			}
		},
		MergeMsg:        func(a, b cutfit.VertexID) cutfit.VertexID { return max(a, b) },
		InitialMsg:      -1, // smaller than every valid ID: leaves Init values untouched
		ActiveDirection: cutfit.DirectionEither,
		OnSuperstep: func(ss *cutfit.SuperstepStats) error {
			if ss.Superstep%50 == 0 {
				fmt.Printf("superstep %3d: %5d active vertices, %5d messages\n",
					ss.Superstep, ss.ActiveVertices, ss.TotalNetworkMsgs())
			}
			return nil
		},
	}

	labels, stats, err := cutfit.RunProgram(context.Background(), pg, prog)
	if err != nil {
		panic(err)
	}
	size := map[cutfit.VertexID]int{}
	for _, l := range labels {
		size[l]++
	}
	giant := labels[0]
	for l, n := range size {
		if n > size[giant] || (n == size[giant] && l < giant) {
			giant = l
		}
	}
	fmt.Printf("converged=%v after %d supersteps\n", stats.Converged, stats.NumSupersteps())
	fmt.Printf("components: %d; the giant one, label %d, holds %.1f%% of the vertices\n",
		len(size), giant, 100*float64(size[giant])/float64(len(labels)))
	// Output:
	// superstep  50:  8984 active vertices, 37304 messages
	// superstep 100:  5303 active vertices, 21775 messages
	// superstep 150:   793 active vertices,  3231 messages
	// converged=true after 182 supersteps
	// components: 106; the giant one, label 10399, holds 96.2% of the vertices
}
