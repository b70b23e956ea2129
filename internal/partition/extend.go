package partition

import (
	"errors"
	"fmt"
	"math/bits"

	"cutfit/internal/graph"
)

// errStopReplay ends a prefix-replay block scan once the replay reaches the
// assigned prefix length; it never escapes Extend.
var errStopReplay = errors.New("partition: stop prefix replay")

// Extend returns the Assignment of grown — a graph that contains exactly
// this assignment's edges as a prefix, as produced by Graph.Grow, Shrink
// or SlideWindow (a new generation) or by AddEdges on a.G itself
// (in-place growth) — under the same strategy and partition count.
// Retraction needs no strategy work at all: tombstoned slots keep their
// assignment (the dense alignment is the whole point of tombstones), so a
// shrink step reuses every PID and only subtracts the newly-dead edges
// from the histogram. The result is bit-for-bit identical to
// Assign(grown, s, a.NumParts); only the cost differs:
//
//   - stateless hash strategies (SuffixAssigner) assign just the suffix;
//   - Resumable streaming strategies continue this assignment's retained
//     StreamState over the suffix — or, if the state was already taken by
//     an earlier Extend, replay the prefix deterministically first;
//   - any other strategy (Range, whose block boundaries move as the ID
//     span grows) falls back to a full assignment pass. Its prefix PIDs
//     may then differ from this assignment's — downstream topology
//     patching detects that and rebuilds.
//
// The prefix PID entries and the histogram are reused, never recounted, and
// the PID array itself is shared: a pure shrink returns this assignment's
// slice, an append writes only the suffix's PIDs into the lineage's backing
// array (graph.Tail) when this is its newest assignment, and copies when not.
func (a *Assignment) Extend(grown *graph.Graph, s Strategy) (*Assignment, error) {
	if key := KeyOf(s); a.strategyKey != "" && key != a.strategyKey {
		return nil, fmt.Errorf("partition: cannot extend %s assignment with strategy %s", a.strategyKey, key)
	}
	oldLen := len(a.PIDs)
	ne := grown.NumEdges()
	if ne < oldLen {
		return nil, fmt.Errorf("partition: grown graph has %d edges, assignment covers %d", ne, oldLen)
	}
	// Cheap prefix sanity check: the grown edge list must start with the
	// assigned one. Spot-check the boundary edges; full equality is the
	// caller's contract (Graph.Grow guarantees it). EdgeAt keeps this O(1)
	// decodes on a block-backed graph.
	if oldLen > 0 {
		if a.G.NumEdges() < oldLen || a.G.EdgeAt(0) != grown.EdgeAt(0) || a.G.EdgeAt(oldLen-1) != grown.EdgeAt(oldLen-1) {
			return nil, fmt.Errorf("partition: grown graph does not extend the assigned edge list")
		}
	}

	// The appended suffix is tiny relative to the graph in steady-state
	// serving; EdgeRange materializes just it (a copy on a block-backed
	// graph, a subslice on a dense one).
	suffix, wSuffix := grown.EdgeRange(oldLen, ne)
	// inherit returns the grown PID slice with the suffix's slots claimed
	// (zeroed, for the strategy to fill): this assignment's own slice on a
	// pure shrink — PIDs are immutable, so the two share it — and otherwise
	// an in-place extension of the lineage's backing array when this is its
	// newest assignment, a copy with headroom when not.
	var pids []PID
	var tail *graph.Tail[PID]
	inherit := func() []PID {
		if ne == oldLen {
			tail = a.pidsTail
			return a.PIDs[:oldLen:oldLen]
		}
		var out []PID
		out, tail = a.pidsTail.Extend(a.PIDs, make([]PID, ne-oldLen))
		return out
	}
	var retained *StreamState
	prefixStable := true
	switch t := s.(type) {
	case SuffixAssigner:
		pids = inherit()
		if err := t.AssignSuffix(suffix, pids[oldLen:], a.NumParts); err != nil {
			return nil, err
		}
	case Resumable:
		st := a.takeStream()
		if st != nil {
			pids = inherit()
		} else {
			// State already taken (or the assignment was hand-built):
			// replay the prefix, block at a time, into a private slice — the
			// inherited one is shared with this assignment and must not be
			// written. Streaming strategies are deterministic, so the
			// replayed prefix equals the retained one.
			pids = make([]PID, ne)
			fresh, err := t.NewStream(a.NumParts)
			if err != nil {
				return nil, err
			}
			if err := grown.ForEachEdgeBlock(func(start int, edges []graph.Edge, weights []float64) error {
				if start >= oldLen {
					return errStopReplay
				}
				if start+len(edges) > oldLen {
					edges = edges[:oldLen-start]
					if weights != nil {
						weights = weights[:oldLen-start]
					}
				}
				fresh.AssignWeightedEdges(edges, weights, pids[start:start+len(edges)])
				return nil
			}); err != nil && err != errStopReplay {
				return nil, err
			}
			st = fresh
		}
		st.AssignWeightedEdges(suffix, wSuffix, pids[oldLen:])
		retained = st
	default:
		full, err := s.Partition(grown, a.NumParts)
		if err != nil {
			return nil, err
		}
		pids = full
		prefixStable = false
	}

	var na *Assignment
	if prefixStable {
		counts := make([]int64, a.NumParts)
		copy(counts, a.EdgesPerPart)
		for i := oldLen; i < ne; i++ {
			p := pids[i]
			if p < 0 || int(p) >= a.NumParts {
				return nil, fmt.Errorf("partition: edge %d assigned to out-of-range partition %d (strategy %s)", i, p, s.Name())
			}
			counts[p]++
		}
		subtractRetractions(counts, pids, a.G, grown, oldLen)
		na = &Assignment{G: grown, Strategy: s.Name(), strategyKey: KeyOf(s), NumParts: a.NumParts, PIDs: pids, pidsTail: tail, EdgesPerPart: counts, extendedFrom: oldLen}
	} else {
		var err error
		na, err = NewAssignment(grown, s.Name(), pids, a.NumParts)
		if err != nil {
			return nil, fmt.Errorf("%w (strategy %s)", err, s.Name())
		}
		na.strategyKey = KeyOf(s)
	}
	na.stream = retained
	return na, nil
}

// subtractRetractions walks the tombstone diff between old and grown over
// the inherited prefix and removes each newly-dead edge from the copied
// live histogram (its PID slot stays assigned — only the count changes).
func subtractRetractions(counts []int64, pids []PID, old, grown *graph.Graph, oldLen int) {
	newDead := grown.Tombstones()
	if len(newDead) == 0 {
		return
	}
	oldDead := old.Tombstones()
	words := (oldLen + 63) / 64
	if words > len(newDead) {
		words = len(newDead)
	}
	for w := 0; w < words; w++ {
		var ow uint64
		if w < len(oldDead) {
			ow = oldDead[w]
		}
		diff := newDead[w] &^ ow
		for diff != 0 {
			i := w*64 + bits.TrailingZeros64(diff)
			if i < oldLen {
				counts[pids[i]]--
			}
			diff &= diff - 1
		}
	}
}
