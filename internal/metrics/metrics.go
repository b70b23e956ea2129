// Package metrics computes the partitioning characterization metrics of
// §3.1 of the paper: Balance, Non-Cut vertices, Cut vertices, Communication
// Cost and Edge Partition Standard Deviation, plus the replication factor.
//
// All metrics are functions of the edge→partition assignment only. Even
// though vertex-cut partitioning assigns edges, each partition also
// reconstructs the vertices of its edges (as GraphX does), and the vertex
// replication implied by that reconstruction is what the Cut/CommCost
// metrics measure.
package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
)

// Result holds the partitioning metrics for one (graph, strategy, numParts)
// combination. Field names follow the paper's Tables 2 and 3.
type Result struct {
	NumParts int

	// Balance is the ratio of the largest edge partition to the mean edge
	// partition size; 1.0 is perfectly balanced.
	Balance float64
	// NonCut is the number of vertices that reside in exactly one
	// partition (no replicas).
	NonCut int64
	// Cut is the number of vertices that exist in more than one partition.
	Cut int64
	// CommCost is the total number of copies of Cut vertices — the number
	// of messages exchanged per BSP superstep to synchronize their state.
	CommCost int64
	// PartStDev is the standard deviation of edges per partition.
	PartStDev float64

	// ReplicationFactor is the mean number of partitions per vertex,
	// (CommCost + NonCut) / |V|. Not a paper table column, but standard in
	// the vertex-cut literature and used by the ablation benchmarks.
	ReplicationFactor float64
	// MaxEdges and MaxVertices are the largest edge / reconstructed-vertex
	// partition sizes.
	MaxEdges    int64
	MaxVertices int64
	// EdgesPerPart and VerticesPerPart are the per-partition sizes
	// (tombstoned edges never count).
	EdgesPerPart    []int64
	VerticesPerPart []int64

	// Weighted counterparts, populated only when the graph carries edge
	// weights (nil/zero otherwise — the unweighted path is untouched).
	// WeightPerPart is the per-partition total live edge weight;
	// WeightedBalance and MaxWeight are its max/mean ratio and maximum;
	// WeightedCommCost scales each cut vertex's synchronization copies by
	// the vertex's weighted degree, so hot (heavy-edge) vertices dominate
	// the cost the way they dominate real superstep traffic. With all
	// weights 1, WeightPerPart equals EdgesPerPart exactly.
	WeightPerPart    []float64
	WeightedBalance  float64
	MaxWeight        float64
	WeightedCommCost float64
}

// Compute derives the full metric set from a raw edge assignment. assign
// must be aligned with g.Edges() and every PID must be in [0, numParts).
// Callers that already hold a validated partition.Assignment should use
// FromAssignment, which skips re-validation and re-counting.
func Compute(g *graph.Graph, assign []partition.PID, numParts int) (*Result, error) {
	a, err := partition.NewAssignment(g, "", assign, numParts)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return FromAssignment(a)
}

// FromAssignment derives the full metric set from a validated Assignment.
// The per-partition edge histogram is taken from the assignment (copied,
// not aliased); only the vertex-replication pass remains.
func FromAssignment(a *partition.Assignment) (*Result, error) {
	g, numParts := a.G, a.NumParts
	if len(a.EdgesPerPart) != numParts {
		return nil, fmt.Errorf("metrics: assignment histogram has %d partitions, want %d", len(a.EdgesPerPart), numParts)
	}
	nv := g.NumVertices()
	words := (numParts + 63) / 64
	// replicaBits[v*words : (v+1)*words] is the partition bitset of dense
	// vertex v. Tombstoned edges replicate nothing.
	replicaBits := make([]uint64, nv*words)
	weighted := g.Weighted()
	var weightPerPart, wdeg []float64
	if weighted {
		weightPerPart = make([]float64, numParts)
		wdeg = make([]float64, nv)
	}
	numDead := g.NumDeadEdges()
	// Ascending edge order on either tier, so the float sums are
	// bit-identical: the dense tier reads the graph's cached endpoint
	// indices — the ones the build of whichever candidate wins needs anyway —
	// and the block tier resolves them a block at a time.
	if err := g.ForEachEndpointBlock(0, g.NumEdges(), true, func(start int, sidx, didx []int32, ws []float64) error {
		for j := range sidx {
			i := start + j
			if numDead != 0 && !g.EdgeAlive(i) {
				continue
			}
			p := a.PIDs[i]
			w, b := int(p)/64, uint(p)%64
			replicaBits[int(sidx[j])*words+w] |= 1 << b
			replicaBits[int(didx[j])*words+w] |= 1 << b
			if weighted {
				wt := ws[j]
				weightPerPart[p] += wt
				wdeg[sidx[j]] += wt
				wdeg[didx[j]] += wt
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}

	edgesPerPart := make([]int64, numParts)
	copy(edgesPerPart, a.EdgesPerPart)
	res := &Result{NumParts: numParts, EdgesPerPart: edgesPerPart, WeightPerPart: weightPerPart}
	vertsPerPart := make([]int64, numParts)
	for v := 0; v < nv; v++ {
		replicas := 0
		base := v * words
		for w := 0; w < words; w++ {
			word := replicaBits[base+w]
			replicas += bits.OnesCount64(word)
			for word != 0 {
				b := bits.TrailingZeros64(word)
				vertsPerPart[w*64+b]++
				word &= word - 1
			}
		}
		switch {
		case replicas == 1:
			res.NonCut++
		case replicas > 1:
			res.Cut++
			res.CommCost += int64(replicas)
			if wdeg != nil {
				res.WeightedCommCost += float64(replicas) * wdeg[v]
			}
		}
	}
	res.VerticesPerPart = vertsPerPart
	res.Finalize(nv)
	return res, nil
}

// Finalize computes the derived fields — Balance, PartStDev, MaxEdges,
// MaxVertices, ReplicationFactor — from the directly-counted fields
// (EdgesPerPart, VerticesPerPart, NonCut, Cut, CommCost). It is shared by
// every Result producer (FromAssignment and the pregel topology-derived
// path) so the derived values are bit-for-bit identical regardless of how
// the counts were obtained.
func (r *Result) Finalize(numVertices int) {
	var sum, max int64
	for _, c := range r.EdgesPerPart {
		sum += c
		if c > max {
			max = c
		}
	}
	r.MaxEdges = max
	r.MaxVertices = 0
	for _, c := range r.VerticesPerPart {
		if c > r.MaxVertices {
			r.MaxVertices = c
		}
	}
	mean := float64(sum) / float64(r.NumParts)
	if mean > 0 {
		r.Balance = float64(max) / mean
	} else {
		r.Balance = 1
	}
	var ss float64
	for _, c := range r.EdgesPerPart {
		d := float64(c) - mean
		ss += d * d
	}
	r.PartStDev = math.Sqrt(ss / float64(r.NumParts))
	if numVertices > 0 {
		r.ReplicationFactor = float64(r.CommCost+r.NonCut) / float64(numVertices)
	} else {
		r.ReplicationFactor = 0
	}
	if r.WeightPerPart != nil {
		var wsum, wmax float64
		for _, c := range r.WeightPerPart {
			wsum += c
			if c > wmax {
				wmax = c
			}
		}
		r.MaxWeight = wmax
		if wmean := wsum / float64(r.NumParts); wmean > 0 {
			r.WeightedBalance = wmax / wmean
		} else {
			r.WeightedBalance = 1
		}
	}
}

// ComputeFor partitions g with strategy s and computes the metrics in one
// call — the common path for tables and tests. The assignment is produced
// once via partition.Assign.
func ComputeFor(g *graph.Graph, s partition.Strategy, numParts int) (*Result, error) {
	a, err := partition.Assign(g, s, numParts)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return FromAssignment(a)
}

// MetricByName extracts a metric value from a Result by its table name:
// "Balance", "NonCut", "Cut", "CommCost", "PartStDev", "ReplicationFactor".
func (r *Result) MetricByName(name string) (float64, error) {
	switch name {
	case "Balance":
		return r.Balance, nil
	case "NonCut":
		return float64(r.NonCut), nil
	case "Cut":
		return float64(r.Cut), nil
	case "CommCost":
		return float64(r.CommCost), nil
	case "PartStDev":
		return r.PartStDev, nil
	case "ReplicationFactor":
		return r.ReplicationFactor, nil
	case "WeightedBalance":
		return r.WeightedBalance, nil
	case "WeightedCommCost":
		return r.WeightedCommCost, nil
	}
	return 0, fmt.Errorf("metrics: unknown metric %q", name)
}

// MetricNames returns the five paper metrics in table order.
func MetricNames() []string {
	return []string{"Balance", "NonCut", "Cut", "CommCost", "PartStDev"}
}
