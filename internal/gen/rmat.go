// Package gen synthesizes graphs with controlled structural properties:
// R-MAT power-law graphs, preferential-attachment graphs, and perturbed
// planar grids that stand in for the road networks of the paper's dataset
// collection. All generators are deterministic functions of their seed.
//
// The paper evaluates on nine real datasets (SNAP graphs and Twitter
// crawls). Those are unavailable here, so internal/datasets composes these
// generators into analogs matched on the structural axes the paper analyzes:
// degree skew, edge symmetry, zero-degree fractions, triangle density,
// component count and diameter class.
package gen

import (
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/rng"
)

// RMATConfig parameterizes the recursive-matrix (R-MAT / Kronecker) graph
// generator of Chakrabarti, Zhan and Faloutsos. The four quadrant
// probabilities A, B, C, D must be positive and sum to 1; A >> D produces
// the heavy-tailed degree distributions typical of social graphs.
type RMATConfig struct {
	Scale      int     // number of vertices is 2^Scale
	EdgeFactor float64 // edges ≈ EdgeFactor * 2^Scale
	A, B, C, D float64 // quadrant probabilities
	// Noise perturbs the quadrant probabilities at every recursion level,
	// which smooths the degree distribution and avoids the artificial
	// staircase pattern of pure R-MAT. 0 disables, 0.1 is typical.
	Noise float64
	Seed  uint64
}

// DefaultRMAT returns the Graph500-style parameterization (0.57, 0.19,
// 0.19, 0.05) at the given scale and edge factor.
func DefaultRMAT(scale int, edgeFactor float64, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Noise: 0.1, Seed: seed,
	}
}

// Validate reports whether the configuration is usable.
func (c RMATConfig) Validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("gen: RMAT scale %d out of range [1,30]", c.Scale)
	}
	if c.EdgeFactor <= 0 {
		return fmt.Errorf("gen: RMAT edge factor %g must be positive", c.EdgeFactor)
	}
	sum := c.A + c.B + c.C + c.D
	if c.A <= 0 || c.B <= 0 || c.C <= 0 || c.D <= 0 {
		return fmt.Errorf("gen: RMAT quadrant probabilities must be positive")
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("gen: RMAT quadrant probabilities sum to %g, want 1", sum)
	}
	if c.Noise < 0 || c.Noise >= 1 {
		return fmt.Errorf("gen: RMAT noise %g out of range [0,1)", c.Noise)
	}
	return nil
}

// RMAT generates a directed multigraph with 2^Scale vertex ID space and
// approximately EdgeFactor*2^Scale edges. Duplicate edges and self loops
// may occur, as in real crawled graphs; use Dedup/DropSelfLoops to clean.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 1 << cfg.Scale
	m := int(cfg.EdgeFactor * float64(n))
	edges := make([]graph.Edge, 0, m)
	if err := RMATStream(cfg, 0, func(batch []graph.Edge) error {
		edges = append(edges, batch...)
		return nil
	}); err != nil {
		return nil, err
	}
	return graph.FromEdges(edges), nil
}

// RMATStream generates the exact edge sequence of RMAT (same seed, same
// rng consumption, same edges in the same order) but delivers it to fn in
// reused batches of batchEdges instead of materializing the dense []Edge —
// the out-of-core generation path for graphs whose dense edge list would
// not fit comfortably in memory. batchEdges <= 0 selects 8192. The batch
// slice is reused between calls; fn must not retain it. A non-nil error
// from fn stops generation and is returned.
func RMATStream(cfg RMATConfig, batchEdges int, fn func(batch []graph.Edge) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if batchEdges <= 0 {
		batchEdges = 8192
	}
	r := rng.New(cfg.Seed)
	n := 1 << cfg.Scale
	m := int(cfg.EdgeFactor * float64(n))
	batch := make([]graph.Edge, 0, batchEdges)
	for i := 0; i < m; i++ {
		src, dst := rmatEdge(r, cfg)
		batch = append(batch, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
		if len(batch) == batchEdges {
			if err := fn(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		return fn(batch)
	}
	return nil
}

// RMATBlocks generates an R-MAT graph directly into the block-compressed
// edge tier: batches stream from the generator into a graph.BlockBuilder,
// so peak heap during generation is one block of pending edges plus the
// compressed payloads, never the dense edge list. blockEdges 0 selects
// graph.DefaultBlockEdges. The result is edge-for-edge identical to
// RMAT(cfg) (same fingerprint), just block-backed.
func RMATBlocks(cfg RMATConfig, blockEdges int) (*graph.Graph, error) {
	bb := graph.NewBlockBuilder(blockEdges)
	if err := RMATStream(cfg, 0, func(batch []graph.Edge) error {
		bb.Append(batch)
		return nil
	}); err != nil {
		return nil, err
	}
	return graph.FromBlocks(bb.Finish()), nil
}

// rmatEdge draws one edge by recursive quadrant descent.
func rmatEdge(r *rng.Rand, cfg RMATConfig) (src, dst int64) {
	a, b, c, d := cfg.A, cfg.B, cfg.C, cfg.D
	for level := 0; level < cfg.Scale; level++ {
		aa, bb, cc, dd := a, b, c, d
		if cfg.Noise > 0 {
			// Multiplicative noise, renormalized.
			aa *= 1 - cfg.Noise + 2*cfg.Noise*r.Float64()
			bb *= 1 - cfg.Noise + 2*cfg.Noise*r.Float64()
			cc *= 1 - cfg.Noise + 2*cfg.Noise*r.Float64()
			dd *= 1 - cfg.Noise + 2*cfg.Noise*r.Float64()
			norm := aa + bb + cc + dd
			aa, bb, cc, dd = aa/norm, bb/norm, cc/norm, dd/norm
		}
		u := r.Float64()
		src <<= 1
		dst <<= 1
		switch {
		case u < aa:
			// top-left quadrant: both bits 0
		case u < aa+bb:
			dst |= 1
		case u < aa+bb+cc:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}
