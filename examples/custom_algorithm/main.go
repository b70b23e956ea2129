// Custom algorithm: write a new Pregel program against the public engine
// API. This computes, for every vertex, the *maximum* vertex ID in its
// weakly connected component (the mirror image of the built-in Connected
// Components), and uses the OnSuperstep hook to print per-round progress —
// the observability the paper relied on to attribute time to supersteps.
package main

import (
	"context"
	"fmt"
	"log"

	"cutfit"
)

func main() {
	spec, err := cutfit.DatasetByName("roadnet-pa")
	if err != nil {
		log.Fatal(err)
	}
	g, err := spec.BuildCached()
	if err != nil {
		log.Fatal(err)
	}
	pg, err := cutfit.Partition(g, cutfit.CanonicalRandomVertexCut(), 32)
	if err != nil {
		log.Fatal(err)
	}

	prog := cutfit.Program[cutfit.VertexID, cutfit.VertexID]{
		Init: func(id cutfit.VertexID) cutfit.VertexID { return id },
		VProg: func(id cutfit.VertexID, val, msg cutfit.VertexID) cutfit.VertexID {
			if msg > val {
				return msg
			}
			return val
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
		MergeMsg: func(a, b cutfit.VertexID) cutfit.VertexID {
			if a > b {
				return a
			}
			return b
		},
		InitialMsg:      -1, // smaller than every valid ID: leaves Init values untouched
		ActiveDirection: cutfit.DirectionEither,
		OnSuperstep: func(ss *cutfit.SuperstepStats) error {
			if ss.Superstep%10 == 0 {
				fmt.Printf("  superstep %3d: %6d active vertices, %7d messages\n",
					ss.Superstep, ss.ActiveVertices, ss.TotalNetworkMsgs())
			}
			return nil
		},
	}

	labels, stats, err := cutfit.RunProgram(context.Background(), pg, prog)
	if err != nil {
		log.Fatal(err)
	}
	components := map[cutfit.VertexID]int{}
	for _, l := range labels {
		components[l]++
	}
	fmt.Printf("\nconverged=%v after %d supersteps\n", stats.Converged, stats.NumSupersteps())
	fmt.Printf("components (by max-ID label): %d\n", len(components))
	biggest, size := cutfit.VertexID(-1), 0
	for l, n := range components {
		if n > size {
			biggest, size = l, n
		}
	}
	fmt.Printf("giant component: label %d with %d vertices (%.1f%%)\n",
		biggest, size, 100*float64(size)/float64(len(labels)))
}
