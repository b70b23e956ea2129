// Package partition implements the vertex-cut edge partitioning strategies
// evaluated in the paper: GraphX's four built-in partitioners (RandomVertexCut,
// EdgePartition1D, EdgePartition2D, CanonicalRandomVertexCut) and the two
// strategies the paper proposes (SourceCut, DestinationCut), plus streaming
// greedy partitioners (Greedy, HDRF) used by the ablation benchmarks.
//
// A vertex-cut partitioner assigns *edges* to partitions; vertices are then
// replicated into every partition that holds at least one of their edges.
// The metrics package quantifies the quality of the resulting cut.
package partition

import (
	"fmt"
	"strconv"
	"strings"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

// PID identifies a partition, in [0, NumParts).
type PID int32

// Strategy assigns every edge of a graph to one of numParts partitions.
// Implementations must be deterministic: the same graph and part count must
// always produce the same assignment.
type Strategy interface {
	// Name returns the short identifier used in tables (e.g. "2D").
	Name() string
	// Partition returns one PID per edge, aligned with g.Edges().
	Partition(g *graph.Graph, numParts int) ([]PID, error)
}

// Keyer is an optional Strategy extension for parameterized strategies
// whose Name alone does not identify the assignment they produce (e.g. the
// hybrid cut, where the in-degree threshold changes the result but the
// table name stays "Hybrid"). Cache layers key artifacts by KeyOf, never by
// Name, so two variants of one strategy can never alias each other's
// cached assignments.
type Keyer interface {
	// Key returns an identifier unique to this strategy's exact assignment
	// behavior.
	Key() string
}

// KeyOf returns the cache identity of a strategy: its Key when it
// implements Keyer, else its Name.
func KeyOf(s Strategy) string {
	if k, ok := s.(Keyer); ok {
		return k.Key()
	}
	return s.Name()
}

// EdgeHashFunc is a stateless per-edge assignment function, the shape of
// all GraphX partitioners.
type EdgeHashFunc func(src, dst graph.VertexID, numParts int) PID

// hashStrategy adapts an EdgeHashFunc into a Strategy. Because the function
// is stateless, assignment is embarrassingly parallel: Partition shards the
// edge list over all cores and each shard writes its index range of the
// output, so the result is identical to the sequential loop.
type hashStrategy struct {
	name string
	fn   EdgeHashFunc
	// prep, when set, specializes the hash function once per Partition call
	// for a fixed partition count — hoisting any per-numParts setup (2D's
	// grid side) out of the per-edge path.
	prep func(numParts int) EdgeHashFunc
}

// NewHashStrategy wraps a stateless per-edge hash function as a Strategy.
func NewHashStrategy(name string, fn EdgeHashFunc) Strategy {
	return &hashStrategy{name: name, fn: fn}
}

// newPreparedHashStrategy wraps a factory that builds the per-edge hash for
// a fixed partition count, invoked once per Partition call.
func newPreparedHashStrategy(name string, prep func(numParts int) EdgeHashFunc) Strategy {
	return &hashStrategy{name: name, prep: prep}
}

func (s *hashStrategy) Name() string { return s.name }

func (s *hashStrategy) Partition(g *graph.Graph, numParts int) ([]PID, error) {
	if err := checkParts(numParts); err != nil {
		return nil, err
	}
	fn := s.fn
	if s.prep != nil {
		fn = s.prep(numParts)
	}
	// Block at a time: a block-backed graph never materializes its dense
	// edge list here, and each block is still sharded over all cores.
	out := make([]PID, g.NumEdges())
	if err := g.ForEachEdgeBlock(func(start int, edges []graph.Edge) error {
		return assignHashParallel(edges, out[start:start+len(edges)], fn, numParts)
	}); err != nil {
		return nil, fmt.Errorf("partition: strategy %s: %w", s.name, err)
	}
	return out, nil
}

// AssignSuffix evaluates the stateless per-edge hash over an arbitrary
// edge slice, writing into out — the SuffixAssigner hook that lets
// Assignment.Extend assign only a graph's appended edge suffix.
func (s *hashStrategy) AssignSuffix(edges []graph.Edge, out []PID, numParts int) error {
	if err := checkParts(numParts); err != nil {
		return err
	}
	if len(out) != len(edges) {
		return fmt.Errorf("partition: strategy %s: output has %d slots for %d edges", s.name, len(out), len(edges))
	}
	fn := s.fn
	if s.prep != nil {
		fn = s.prep(numParts)
	}
	if err := assignHashParallel(edges, out, fn, numParts); err != nil {
		return fmt.Errorf("partition: strategy %s: %w", s.name, err)
	}
	return nil
}

func checkParts(numParts int) error {
	if numParts <= 0 {
		return fmt.Errorf("partition: number of partitions must be positive, got %d", numParts)
	}
	if numParts > 1<<20 {
		return fmt.Errorf("partition: number of partitions %d exceeds sanity limit", numParts)
	}
	return nil
}

// RandomVertexCut (RVC) hashes the source and destination IDs together,
// collocating all same-direction edges between two vertices.
func RandomVertexCut() Strategy {
	return NewHashStrategy("RVC", func(src, dst graph.VertexID, n int) PID {
		h := rng.Combine2(uint64(src), uint64(dst))
		return PID(h % uint64(n))
	})
}

// CanonicalRandomVertexCut (CRVC) hashes the endpoint IDs in canonical
// order, collocating all edges between two vertices regardless of
// direction: (u,v) and (v,u) land in the same partition.
func CanonicalRandomVertexCut() Strategy {
	return NewHashStrategy("CRVC", func(src, dst graph.VertexID, n int) PID {
		a, b := uint64(src), uint64(dst)
		if a > b {
			a, b = b, a
		}
		h := rng.Combine2(a, b)
		return PID(h % uint64(n))
	})
}

// EdgePartition1D (1D) hashes the source vertex ID, collocating every
// out-edge of a vertex.
func EdgePartition1D() Strategy {
	return NewHashStrategy("1D", func(src, dst graph.VertexID, n int) PID {
		return PID(rng.Mix64(uint64(src)) % uint64(n))
	})
}

// EdgePartition2D (2D) arranges partitions in a ceil(sqrt(N)) square grid
// and picks the column from the source hash and the row from the
// destination hash. Every source vertex touches at most one column (√N
// partitions) and every destination at most one row, guaranteeing a 2√N
// bound on vertex replication. When N is not a perfect square the grid is
// folded back with a final modulo, which — as the paper observes — can
// produce imbalanced partitions.
//
// The grid side depends only on the partition count, so it is computed
// once per Partition call, not per edge.
func EdgePartition2D() Strategy {
	return newPreparedHashStrategy("2D", func(n int) EdgeHashFunc {
		side := uint64(ceilSqrt(n))
		return func(src, dst graph.VertexID, n int) PID {
			col := rng.Mix64(uint64(src)) % side
			row := rng.Mix64(uint64(dst)) % side
			return PID((col*side + row) % uint64(n))
		}
	})
}

// SourceCut (SC) assigns edges by simple modulo of the source vertex ID —
// the paper's first proposed strategy. Unlike 1D it does not hash, so any
// locality captured by consecutive vertex IDs (as in road networks, where
// IDs follow geography) is preserved, at the cost of balance.
func SourceCut() Strategy {
	return NewHashStrategy("SC", func(src, dst graph.VertexID, n int) PID {
		return PID(uint64(src) % uint64(n))
	})
}

// DestinationCut (DC) assigns edges by simple modulo of the destination
// vertex ID — the paper's second proposed strategy.
func DestinationCut() Strategy {
	return NewHashStrategy("DC", func(src, dst graph.VertexID, n int) PID {
		return PID(uint64(dst) % uint64(n))
	})
}

// ceilSqrt returns the smallest s with s*s >= n.
func ceilSqrt(n int) int {
	if n <= 1 {
		return 1
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// All returns the six strategies evaluated in the paper, in table order.
func All() []Strategy {
	return []Strategy{
		RandomVertexCut(),
		EdgePartition1D(),
		EdgePartition2D(),
		CanonicalRandomVertexCut(),
		SourceCut(),
		DestinationCut(),
	}
}

// Extended returns the paper's six strategies plus the streaming greedy
// partitioners used by the ablation experiments.
func Extended() []Strategy {
	return append(All(), Greedy(), HDRF(1.0))
}

// ByName returns the strategy with the given table name (case sensitive:
// "RVC", "1D", "2D", "CRVC", "SC", "DC", "Greedy", "HDRF"). The extension
// strategies resolve as "Range" and "Hybrid" (default in-degree threshold)
// or "Hybrid:<threshold>" for an explicit cutoff, e.g. "Hybrid:250".
func ByName(name string) (Strategy, error) {
	for _, s := range Extended() {
		if s.Name() == name {
			return s, nil
		}
	}
	switch {
	case name == "Range":
		return Range(), nil
	case name == "Hybrid":
		return Hybrid(DefaultHybridThreshold), nil
	case strings.HasPrefix(name, "Hybrid:"):
		t, err := strconv.Atoi(name[len("Hybrid:"):])
		if err != nil || t <= 0 {
			return nil, fmt.Errorf("partition: bad hybrid threshold in %q (want Hybrid:<positive int>)", name)
		}
		return Hybrid(t), nil
	}
	return nil, fmt.Errorf("partition: unknown strategy %q", name)
}

// ByNames resolves a comma-separated strategy list (each element any name
// ByName accepts; empty elements are skipped) — the shared parser behind
// every -strategies CLI flag. At least one strategy must resolve.
func ByNames(csv string) ([]Strategy, error) {
	var out []Strategy
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("partition: no strategies in %q", csv)
	}
	return out, nil
}
