package algorithms

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// Profile classifies an algorithm by its communication structure, which
// determines the predictive partitioning metric.
type Profile struct {
	// Name is a human-readable algorithm name.
	Name string
	// EdgeBound is true when complexity is dominated by edge traversal
	// with small per-vertex state (PageRank, CC, SSSP); false when the
	// algorithm keeps heavy per-vertex state (Triangle Count).
	EdgeBound bool
	// Metric is the partitioning metric that predicts execution time for
	// this profile: "CommCost" for edge-bound algorithms, "Cut" otherwise.
	Metric string
	// IterationsScaleWithDiameter is true for algorithms whose superstep
	// count follows the graph diameter (SSSP, CC to convergence).
	IterationsScaleWithDiameter bool
}

// The profiles of the paper's four algorithms.
var (
	ProfilePageRank = Profile{Name: "pagerank", EdgeBound: true, Metric: "CommCost"}
	ProfileCC       = Profile{Name: "cc", EdgeBound: true, Metric: "CommCost", IterationsScaleWithDiameter: true}
	ProfileTR       = Profile{Name: "triangles", EdgeBound: false, Metric: "Cut"}
	ProfileSSSP     = Profile{Name: "sssp", EdgeBound: true, Metric: "CommCost", IterationsScaleWithDiameter: true}
)

// Params are the knobs of a served run; an algorithm reads the ones it has.
type Params struct {
	// Iters caps pagerank, dynamicpr and cc rounds; dynamicpr and cc take
	// 0 as "run to convergence". triangles and sssp ignore it.
	Iters     int
	Tol       float64 // dynamicpr's per-vertex convergence tolerance
	ResetProb float64 // PageRank's damping complement
	// Landmarks are sssp's sources; nil means the graph's first vertex.
	Landmarks []graph.VertexID
}

// ServedParams are what a served request runs with: the caller's iteration
// cap, GraphX's reset probability and runUntilConvergence tolerance.
func ServedParams(iters int) Params {
	return Params{Iters: iters, Tol: 1e-3, ResetProb: DefaultResetProb}
}

// VertexRank pairs a vertex with its PageRank score.
type VertexRank struct {
	Vertex graph.VertexID `json:"vertex"`
	Rank   float64        `json:"rank"`
}

// Summary is a run's headline result, in the encoding run reports embed;
// only the fields of the algorithm that ran are set.
type Summary struct {
	TopRanks   []VertexRank `json:"topRanks,omitempty"`
	Components int          `json:"components,omitempty"`
	Triangles  int64        `json:"triangles,omitempty"`
	// Landmark is a pointer: the sssp source is usually vertex 0, which
	// omitempty on a plain VertexID would silently drop.
	Landmark *graph.VertexID `json:"landmark,omitempty"`
	Reached  int             `json:"reached,omitempty"`
	// Text is the same result as one terminal line.
	Text string `json:"-"`
}

// Entry is one served algorithm: what every layer needs to know about it.
// The table of them is the only place that names the served algorithms —
// Session.Run, the CLI, the advisor, the experiment harness and both sides of
// the cluster look theirs up in it.
type Entry struct {
	Name    string
	Profile Profile // what the advisor and empirical selection rank by
	// Check rejects parameters the algorithm cannot run with. Run calls it;
	// a caller with work to do before Run (build a topology, bind a run on a
	// worker) calls it first.
	Check func(Params) error
	// Run executes in process and returns the per-vertex values, aligned
	// with pg.G.Vertices(): []float64 ranks, []graph.VertexID labels,
	// []int64 triangle counts or a HopTable.
	Run func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (any, *pregel.RunStats, error)
	// Summarize reduces Run's values (or a cluster run's) to the headline.
	Summarize func(g *graph.Graph, values any, stats *pregel.RunStats) Summary
	// Seq is the sequential oracle: the same values without the engine
	// (sssp's as []DistMap), exact for integers, approximate for ranks.
	Seq func(g *graph.Graph, p Params) any
	// Vertex is the program with its types still known — a Vertex[V, M] —
	// for the algorithms the cluster runs; nil marks one as local-only.
	Vertex any
	// Resume, set by the algorithms whose converged answer can start the run
	// on a descendant generation (see resumable), is Run for a caller that
	// keeps answers: the same program through the same engine, which also
	// records each vertex's change stamp and returns values and stamps as an
	// answer to cache, and which starts from the ancestor answer in from
	// instead of superstep 0 when from is not nil. Values are those of a cold
	// run either way; the RunStats describe the run that happened.
	// pregel.ErrStampClock means from cannot be continued: call again with nil.
	Resume func(ctx context.Context, pg *pregel.PartitionedGraph, p Params, from *pregel.Parent) (any, pregel.StoredAnswer, *pregel.RunStats, error)
}

// Vertex is a served Pregel vertex program over values V and messages M with
// their wire codecs: what the cluster needs to run it on both sides.
type Vertex[V, M any] struct {
	// Program instantiates the program over an out-degree table indexed by
	// dense vertex: Graph.OutDegrees() locally and on the coordinator, the
	// copy shipped in the shard on a worker — the same integers, so the
	// same float operations in the same order.
	Program func(p Params, outDeg []int32) pregel.Program[V, M]
	VC      pregel.Codec[V]
	MC      pregel.Codec[M]
	// Values projects final vertex states to the values Entry.Run returns.
	Values func([]V) any
}

// vertexEntry is the table entry of a vertex program.
func vertexEntry[V, M any](e Entry, v Vertex[V, M]) *Entry {
	e.Vertex = v
	e.Run = func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (any, *pregel.RunStats, error) {
		if err := e.Check(p); err != nil {
			return nil, nil, err
		}
		vals, stats, err := pregel.Run(ctx, pg, v.Program(p, pg.G.OutDegrees()))
		if err != nil {
			return nil, nil, err
		}
		return v.Values(vals), stats, nil
	}
	return &e
}

// resumable declares the label-propagation vertex program of e (a vertex
// starts at Init, its value only ever falls, and at the fixpoint an edge's
// endpoints agree) seedable from a parent generation's answer: it sets
// Entry.Resume. See pregel.SeedLabels for why the values cannot differ from a
// cold run's.
func resumable[V comparable, M any](e *Entry) *Entry {
	v := e.Vertex.(Vertex[V, M])
	e.Resume = func(ctx context.Context, pg *pregel.PartitionedGraph, p Params, from *pregel.Parent) (any, pregel.StoredAnswer, *pregel.RunStats, error) {
		if err := e.Check(p); err != nil {
			return nil, nil, nil, err
		}
		prog := v.Program(p, pg.G.OutDegrees())
		var start *pregel.Start[V]
		if from != nil {
			var err error
			if start, err = pregel.SeedLabels(pg, from.Answer.(*pregel.Answer[V]), from.OldLen, from.Remap, prog.Init); err != nil {
				return nil, nil, nil, err
			}
		}
		ans, stats, err := pregel.RunStamped(ctx, pg, prog, start)
		if err != nil {
			return nil, nil, nil, err
		}
		return v.Values(ans.Vals), ans, stats, nil
	}
	return e
}

// typed gives an Entry.Run result its static type back.
func typed[T any](values any, stats *pregel.RunStats, err error) (T, *pregel.RunStats, error) {
	v, _ := values.(T)
	return v, stats, err
}

func checkResetProb(alg string, resetProb float64) error {
	if !(resetProb >= 0 && resetProb < 1) {
		return fmt.Errorf("algorithms: %s resetProb %g out of [0,1)", alg, resetProb)
	}
	return nil
}

func noParams(Params) error { return nil }

// served is the table, in the order help and error texts list it.
var served = []*Entry{pageRankAlg, dynamicPRAlg, ccAlg, trianglesAlg, ssspAlg}

// Served returns the table. Callers must not modify it.
func Served() []*Entry { return served }

// ClusterServed returns the entries the cluster runs: those with a Vertex.
func ClusterServed() []*Entry {
	return slices.DeleteFunc(slices.Clone(served), func(e *Entry) bool { return e.Vertex == nil })
}

// Lookup resolves a served algorithm by name; the error lists the names.
func Lookup(name string) (*Entry, error) {
	for _, e := range served {
		if e.Name == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("algorithms: unknown algorithm %q (want %s)", name, NameList(served, "or"))
}

// NameList renders two or more entries' names as prose for help and error
// texts: "a, b <conj> c".
func NameList(entries []*Entry, conj string) string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " " + conj + " " + names[last]
}

// summarizeRanks is the headline of both PageRank flavors: the five
// highest-ranked vertices.
func summarizeRanks(g *graph.Graph, values any, _ *pregel.RunStats) Summary {
	top := topRanks(g, values.([]float64), 5)
	var text strings.Builder
	text.WriteString("top ranks:")
	for _, t := range top {
		fmt.Fprintf(&text, " %d=%.3f", t.Vertex, t.Rank)
	}
	return Summary{TopRanks: top, Text: text.String()}
}

// rankedBefore is the order of a rank summary: rank descending, ties
// broken by vertex ID for determinism.
func rankedBefore(a, b VertexRank) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	return a.Vertex < b.Vertex
}

// topRanks extracts the k highest-ranked vertices in rankedBefore order:
// one pass over the ranks, holding the best k seen so far in order.
func topRanks(g *graph.Graph, ranks []float64, k int) []VertexRank {
	verts := g.Vertices()
	top := make([]VertexRank, 0, min(k, len(ranks)))
	if cap(top) == 0 {
		return top
	}
	for i, r := range ranks {
		c := VertexRank{Vertex: verts[i], Rank: r}
		if len(top) < cap(top) {
			top = append(top, c)
		} else if !rankedBefore(c, top[len(top)-1]) {
			continue
		}
		j := len(top) - 1
		for ; j > 0 && rankedBefore(c, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = c
	}
	return top
}

// countLabels counts the distinct values of a connected-components
// labelling (labels[i] belongs to verts[i]; a label is the smallest vertex ID
// the vertex has heard of, so always some vertex's ID). A converged run
// labels every component with its minimum vertex, which is then the one
// vertex of the component labelled with itself; a run stopped early may use
// a label its owner has already abandoned, so those are marked in a bitset
// at the label's position in the sorted vertex list.
func countLabels(verts, labels []graph.VertexID, converged bool) int {
	n := 0
	if converged {
		for i, l := range labels {
			if l == verts[i] {
				n++
			}
		}
		return n
	}
	seen := make([]uint64, (len(verts)+63)/64)
	for _, l := range labels {
		i, _ := slices.BinarySearch(verts, l)
		if w, bit := i>>6, uint64(1)<<(uint(i)&63); seen[w]&bit == 0 {
			seen[w] |= bit
			n++
		}
	}
	return n
}
