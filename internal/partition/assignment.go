package partition

import (
	"fmt"
	"sync"

	"cutfit/internal/graph"
	"cutfit/internal/par"
)

// Assignment is the first-class artifact of one partitioning pass: the
// per-edge partition assignment of a graph, validated on construction,
// together with the per-partition edge histogram that every downstream
// consumer (metrics, the partitioned-graph builder, the empirical
// selector) would otherwise recount.
//
// An Assignment is produced exactly once per strategy invocation by Assign
// and then flows through the whole pipeline: metrics.FromAssignment derives
// the §3.1 metric set from it, pregel builds the engine topology from it,
// and the advisor's empirical selection keeps the winning Assignment so the
// chosen strategy never re-partitions. Treat it as immutable once built.
type Assignment struct {
	// G is the graph the assignment was computed for.
	G *graph.Graph
	// Strategy is the name of the producing strategy ("" if hand-built).
	Strategy string
	// NumParts is the partition count the assignment targets.
	NumParts int
	// PIDs holds one partition ID per dense edge slot, aligned with
	// G.Edges() — tombstoned slots keep their (validated) assignment so the
	// alignment survives retraction. Every entry is in [0, NumParts).
	PIDs []PID
	// EdgesPerPart is the per-partition LIVE edge histogram, counted once
	// during validation; tombstoned edges do not count.
	EdgesPerPart []int64

	// pidsTail is the shared backing array behind PIDs on an assignment
	// produced by Extend (nil otherwise): PIDs is clamped to this
	// generation's length, and extending the newest assignment of a lineage
	// writes only the suffix's PIDs into the array's spare capacity.
	pidsTail *graph.Tail[PID]

	// strategyKey is the producing strategy's cache identity
	// (partition.KeyOf); Extend refuses to continue under a different key.
	strategyKey string

	// extendedFrom is the prefix length inherited verbatim by the last
	// Extend (-1 when the assignment was built one-shot or fully
	// recomputed). Consumers patching topologies use it to skip the
	// defensive prefix comparison.
	extendedFrom int

	// stream is the retained resumable state of a streaming strategy
	// (nil for stateless strategies). Extend takes it — under streamMu, so
	// racing Extends cannot share state — and hands it to the extended
	// assignment; an assignment whose state was already taken falls back
	// to a deterministic replay.
	streamMu sync.Mutex
	stream   *StreamState
}

// NumEdges returns the number of assigned edges.
func (a *Assignment) NumEdges() int { return len(a.PIDs) }

// MemoryFootprint approximates the bytes the assignment alone retains —
// the histogram and any retained streaming state — used as its eviction
// cost by cache layers. The PID slice is priced separately, by PIDShare:
// the topology built from the assignment holds the same slice, and the
// assignments of a lineage's generations share one backing array.
func (a *Assignment) MemoryFootprint() int64 {
	b := int64(len(a.EdgesPerPart)) * 8
	a.streamMu.Lock()
	if a.stream != nil {
		b += a.stream.MemoryFootprint()
	}
	a.streamMu.Unlock()
	return b
}

// PIDShare prices the storage behind PIDs, keyed so that every holder of
// it — this assignment, the topology built from it, the assignments Extend
// derived from it in place — reports the same Share and a cache charges it
// once. ok is false for an empty assignment.
func (a *Assignment) PIDShare() (s graph.Share, ok bool) {
	return graph.SliceShare(a.PIDs, a.pidsTail)
}

// takeStream removes and returns the retained streaming state (nil if
// none, or if a previous Extend already took it).
func (a *Assignment) takeStream() *StreamState {
	a.streamMu.Lock()
	defer a.streamMu.Unlock()
	st := a.stream
	a.stream = nil
	return st
}

// NewAssignment validates a raw per-edge assignment against g (length and
// PID range over the full dense list) and wraps it, counting the
// per-partition live edge histogram in the same pass (tombstoned slots are
// validated but not counted). The PIDs slice is retained, not copied.
func NewAssignment(g *graph.Graph, strategy string, pids []PID, numParts int) (*Assignment, error) {
	if err := checkParts(numParts); err != nil {
		return nil, err
	}
	if ne := g.NumEdges(); len(pids) != ne {
		return nil, fmt.Errorf("partition: assignment has %d entries for %d edges", len(pids), ne)
	}
	numDead := g.NumDeadEdges()
	counts := make([]int64, numParts)
	for i, p := range pids {
		if p < 0 || int(p) >= numParts {
			return nil, fmt.Errorf("partition: edge %d assigned to out-of-range partition %d", i, p)
		}
		if numDead != 0 && !g.EdgeAlive(i) {
			continue
		}
		counts[p]++
	}
	return &Assignment{G: g, Strategy: strategy, strategyKey: strategy, NumParts: numParts, PIDs: pids, EdgesPerPart: counts, extendedFrom: -1}, nil
}

// StrategyKey returns the producing strategy's cache identity
// (partition.KeyOf at production time): the strategy name, or the
// parameterized form (e.g. "Hybrid:8") for Keyer strategies. Persistence
// layers store it so a restored assignment lands under the same cache key
// it was computed for.
func (a *Assignment) StrategyKey() string { return a.strategyKey }

// RestoreAssignmentCounted rebuilds an Assignment from its persisted parts
// on the warm-start path. Its one caller, the snapshot decoder, has checked
// every PID against numParts, the slice against g's dense edge count and
// counts against its recount of g's live edges, so nothing is checked
// again here. The restored assignment carries the recorded strategy cache
// key and retains no streaming state — a later Extend falls back to the
// deterministic prefix replay.
func RestoreAssignmentCounted(g *graph.Graph, strategy, strategyKey string, pids []PID, counts []int64, numParts int) *Assignment {
	return &Assignment{G: g, Strategy: strategy, strategyKey: strategyKey, NumParts: numParts, PIDs: pids, EdgesPerPart: counts, extendedFrom: -1}
}

// ExtendedFrom reports the prefix length this assignment inherited
// verbatim from its parent in the producing Extend call; ok is false for
// one-shot or fully recomputed assignments.
func (a *Assignment) ExtendedFrom() (prefixLen int, ok bool) {
	if a.extendedFrom < 0 {
		return 0, false
	}
	return a.extendedFrom, true
}

// Assign runs strategy s over g exactly once and returns the validated
// Assignment artifact. This is the single entry point of the
// strategy → metrics → engine pipeline; callers that need both the metric
// set and the engine topology share one Assign call instead of
// re-partitioning per consumer.
//
// Hash strategies shard the assignment pass over GOMAXPROCS, the worker
// count every fan-out in the library takes.
//
// For Resumable streaming strategies the produced Assignment retains the
// run's StreamState, so a later Extend over an appended edge suffix
// continues where this pass stopped instead of replaying the prefix. The
// retained state costs roughly a map entry plus replica list per distinct
// vertex; it is included in MemoryFootprint (so cache layers budget for
// it), and holders that will never Extend can let the whole Assignment go
// — the state is reachable only through it.
func Assign(g *graph.Graph, s Strategy, numParts int) (*Assignment, error) {
	var retained *StreamState
	var pids []PID
	if r, ok := s.(Resumable); ok {
		st, err := r.NewStream(numParts)
		if err != nil {
			return nil, err
		}
		// One streamed pass, block at a time: chunked assignment is exactly
		// equivalent to a single call over the full edge list (see
		// AssignEdges), and a block-backed graph never materializes
		// its dense []Edge here.
		pids = make([]PID, g.NumEdges())
		if err := g.ForEachEdgeBlock(func(start int, edges []graph.Edge) error {
			st.AssignEdges(edges, pids[start:start+len(edges)])
			return nil
		}); err != nil {
			return nil, err
		}
		retained = st
	} else {
		var err error
		pids, err = s.Partition(g, numParts)
		if err != nil {
			// Strategy errors already carry the package prefix and, for the
			// built-in strategies, the strategy name.
			return nil, err
		}
	}
	a, err := NewAssignment(g, s.Name(), pids, numParts)
	if err != nil {
		return nil, fmt.Errorf("%w (strategy %s)", err, s.Name())
	}
	a.strategyKey = KeyOf(s)
	a.stream = retained
	return a, nil
}

// parallelAssignThreshold is the edge count below which sharded hash
// assignment falls back to a single-goroutine loop; goroutine fan-out on
// tiny graphs costs more than it saves.
const parallelAssignThreshold = 1 << 14

// assignHashParallel evaluates a stateless per-edge hash over contiguous
// edge ranges, one per GOMAXPROCS slot, writing into out. The output is
// index-addressed, so the result is identical to the sequential loop
// regardless of scheduling; a panicking hash is an error.
func assignHashParallel(edges []graph.Edge, out []PID, fn EdgeHashFunc, numParts int) error {
	shards := par.DefaultParallelism()
	if len(edges) < parallelAssignThreshold || shards < 2 {
		return assignHashRange(edges, out, fn, numParts, 0, len(edges))
	}
	errs := make([]error, shards)
	if err := par.Ranges(shards, len(edges), func(s, lo, hi int) {
		errs[s] = assignHashRange(edges, out, fn, numParts, lo, hi)
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// assignHashRange evaluates fn over edges[lo:hi), writing into out and
// validating the produced PIDs. Errors carry no package prefix; the
// calling Strategy wraps them with its name.
func assignHashRange(edges []graph.Edge, out []PID, fn EdgeHashFunc, numParts, lo, hi int) error {
	for i := lo; i < hi; i++ {
		e := edges[i]
		p := fn(e.Src, e.Dst, numParts)
		// One unsigned compare covers both negative and too-large PIDs: a
		// negative PID wraps past every valid numParts. Keeps the validation
		// branch-free of a second test in this per-edge hot loop.
		if uint32(p) >= uint32(numParts) {
			return fmt.Errorf("hash produced out-of-range partition %d for edge %d", p, i)
		}
		out[i] = p
	}
	return nil
}
