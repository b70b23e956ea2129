package partition

import (
	"fmt"

	"cutfit/internal/graph"
)

// hybridStrategy implements a PowerLyra-style hybrid cut (Chen et al.,
// EuroSys'15, cited in the paper's related work via Verma et al.): edges
// whose destination has low in-degree are grouped by destination (good
// locality for the many low-degree vertices of a power-law graph), while
// edges pointing at high-degree "hub" destinations are hashed by source,
// spreading the hub's huge in-edge set across partitions.
//
// The in-degree consulted is the one observed in the stream so far, not
// the final in-degree: a hub's first `threshold` in-edges stay grouped and
// the rest spread. This makes the assignment of every edge a function of
// the edge-list prefix only, so a hybrid assignment can be resumed over an
// appended suffix (Assignment.Extend) bit-for-bit.
type hybridStrategy struct {
	threshold int32
}

// DefaultHybridThreshold is the in-degree cutoff used when a hybrid cut is
// requested without an explicit threshold (ByName "Hybrid") — PowerLyra's
// default ballpark for social graphs.
const DefaultHybridThreshold = 100

// Hybrid returns a hybrid-cut strategy with the given in-degree threshold
// (100 is PowerLyra's default ballpark for social graphs).
func Hybrid(threshold int) Strategy {
	return &hybridStrategy{threshold: int32(threshold)}
}

func (h *hybridStrategy) Name() string { return "Hybrid" }

// Key distinguishes hybrid variants in caches: the threshold changes the
// assignment, so "Hybrid:25" and "Hybrid:100" must never share entries.
func (h *hybridStrategy) Key() string { return fmt.Sprintf("Hybrid:%d", h.threshold) }

// NewStream returns resumable hybrid-cut state (streaming in-degree
// counters per destination).
func (h *hybridStrategy) NewStream(numParts int) (*StreamState, error) {
	if h.threshold <= 0 {
		return nil, fmt.Errorf("partition: hybrid threshold must be positive, got %d", h.threshold)
	}
	st, err := newStreamState(streamHybrid, numParts)
	if err != nil {
		return nil, err
	}
	st.threshold = int64(h.threshold)
	return st, nil
}

func (h *hybridStrategy) Partition(g *graph.Graph, numParts int) ([]PID, error) {
	return streamPartition(h, g, numParts)
}

// rangeStrategy assigns contiguous source-ID blocks to partitions. Where
// the paper's SC/DC strategies stripe IDs with a modulo — which preserves
// *assignment* locality but scatters consecutive IDs across partitions —
// range partitioning keeps whole ID blocks together, the classic way to
// exploit ID-order locality (e.g. the geographic ordering of road-network
// IDs). Used by ablation A3 to separate the two effects.
type rangeStrategy struct{}

// Range returns the contiguous-block source-ID partitioner.
func Range() Strategy { return rangeStrategy{} }

func (rangeStrategy) Name() string { return "Range" }

func (rangeStrategy) Partition(g *graph.Graph, numParts int) ([]PID, error) {
	if err := checkParts(numParts); err != nil {
		return nil, err
	}
	verts := g.Vertices()
	out := make([]PID, g.NumEdges())
	if len(verts) == 0 {
		return out, nil
	}
	lo := int64(verts[0])
	hi := int64(verts[len(verts)-1])
	span := hi - lo + 1
	if err := g.ForEachEdgeBlock(func(start int, edges []graph.Edge) error {
		for i, e := range edges {
			out[start+i] = PID((int64(e.Src) - lo) * int64(numParts) / span)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
