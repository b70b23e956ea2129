package cutfit_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cutfit"
	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// ccAnswer is the cached cc answer a Session holds for a generation.
type ccAnswer = pregel.Answer[cutfit.VertexID]

// answerOf returns the cc answer se holds for generation g, or nil.
func answerOf(se *cutfit.Session, g *cutfit.Graph) *ccAnswer {
	for _, a := range se.Answers() {
		if a := a.(*ccAnswer); a.G == g {
			return a
		}
	}
	return nil
}

// checkStamps fails unless a carries the stamp invariant over its
// generation's live edges: every vertex not labelled with its own ID has a
// live neighbour with its label and a strictly smaller stamp, both endpoints
// of every live edge agree, and no stamp is past the clock.
func checkStamps(t testing.TB, a *ccAnswer) {
	t.Helper()
	g := a.G
	verts := g.Vertices()
	index := func(id cutfit.VertexID) int {
		v, _ := slices.BinarySearch(verts, id)
		return v
	}
	supported := make([]bool, len(verts))
	for i, e := range g.EdgeSeq() {
		if !g.EdgeAlive(i) {
			continue
		}
		u, v := index(e.Src), index(e.Dst)
		if a.Vals[u] != a.Vals[v] {
			t.Fatalf("edge %d (%d -> %d): labels %d and %d differ in a stored answer", i, e.Src, e.Dst, a.Vals[u], a.Vals[v])
		}
		switch {
		case a.Stamps[u] < a.Stamps[v]:
			supported[v] = true
		case a.Stamps[v] < a.Stamps[u]:
			supported[u] = true
		}
	}
	for v, id := range verts {
		if a.Stamps[v] > a.Clock {
			t.Fatalf("vertex %d stamped %d, past the clock %d", id, a.Stamps[v], a.Clock)
		}
		if a.Vals[v] != id && !supported[v] {
			t.Fatalf("vertex %d labelled %d (stamp %d) with no earlier-stamped neighbour labelled so", id, a.Vals[v], a.Stamps[v])
		}
	}
}

// checkAnswers checks every answer se holds: the labels are union-find's on
// the answer's own generation and the stamp invariant holds.
func checkAnswers(t testing.TB, se *cutfit.Session) {
	t.Helper()
	for _, a := range se.Answers() {
		a := a.(*ccAnswer)
		want, _ := a.G.ConnectedComponents()
		if !slices.Equal(a.Vals, want) {
			t.Fatalf("stored answer of a %d-edge generation differs from union-find", a.G.NumLiveEdges())
		}
		checkStamps(t, a)
	}
}

// runStarts reads the cutfit_run_starts_total series for cc off the process's
// metrics, keyed "start/reason". The registry is process-wide: compare
// before and after.
func runStarts(t testing.TB) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := cutfit.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `cutfit_run_starts_total{algorithm="cc",start="`)
		if !ok {
			continue
		}
		start, rest, _ := strings.Cut(rest, `",reason="`)
		reason, val, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[start+"/"+reason] = n
	}
	return out
}

// seedRig drives one Session through generation steps and checks every cc
// run on the way: the report's component count, the stored answer's labels
// against union-find and against a cold run on a session that has never seen
// the chain, the stamp invariant, and how the run started.
type seedRig struct {
	t     *testing.T
	se    *cutfit.Session
	s     cutfit.Strategy
	parts int
	block bool
	r     *rand.Rand
}

func (h *seedRig) graphOf(edges []cutfit.Edge) *cutfit.Graph {
	if !h.block {
		return cutfit.FromEdges(append([]cutfit.Edge(nil), edges...))
	}
	bb := graph.NewBlockBuilder(64)
	bb.Append(edges, nil)
	return graph.FromBlocks(bb.Finish())
}

// run runs cc to convergence on g and checks it; start is "seeded/parent" or
// "cold/<reason>".
func (h *seedRig) run(g *cutfit.Graph, start string) {
	h.t.Helper()
	before := runStarts(h.t)
	rep, err := h.se.Run(context.Background(), g, h.s, h.parts, "cc", 0)
	if err != nil {
		h.t.Fatal(err)
	}
	after := runStarts(h.t)
	if after[start] != before[start]+1 {
		h.t.Fatalf("run was not counted as %s: counters went %v -> %v", start, before, after)
	}
	if want := strings.HasPrefix(start, "seeded/"); rep.Seeded != want {
		h.t.Fatalf("report says seeded=%v, want %v (%s)", rep.Seeded, want, start)
	}
	want, count := g.ConnectedComponents()
	if rep.Components != count || !rep.Converged {
		h.t.Fatalf("%s run found %d components (converged=%v), union-find %d", start, rep.Components, rep.Converged, count)
	}
	if h.block != g.BlockBacked() {
		h.t.Fatalf("generation is block-backed=%v, the rig wants %v", g.BlockBacked(), h.block)
	}
	a := answerOf(h.se, g)
	if a == nil {
		if h.se.CacheStats().MaxBytes > 1 {
			h.t.Fatalf("%s run left no answer with its generation", start)
		}
		return // a one-byte cache holds one entry at a time
	}
	if !slices.Equal(a.Vals, want) {
		h.t.Fatalf("%s run's labels differ from union-find", start)
	}
	checkStamps(h.t, a)
	cold := cutfit.NewSession(cutfit.SessionOptions{})
	if _, err := cold.Run(context.Background(), g, h.s, h.parts, "cc", 0); err != nil {
		h.t.Fatal(err)
	}
	if c := answerOf(cold, g); c == nil || !slices.Equal(a.Vals, c.Vals) {
		h.t.Fatalf("%s run's labels differ from a cold run's", start)
	}
}

func (h *seedRig) edge(lo, n int) cutfit.Edge {
	return cutfit.Edge{Src: cutfit.VertexID(lo + h.r.Intn(n)), Dst: cutfit.VertexID(lo + h.r.Intn(n))}
}

func (h *seedRig) edges(k, lo, n int) []cutfit.Edge {
	out := make([]cutfit.Edge, k)
	for i := range out {
		out[i] = h.edge(lo, n)
	}
	return out
}

// live picks k live edges of g, oldest first.
func (h *seedRig) live(g *cutfit.Graph, k int) []cutfit.Edge {
	var out []cutfit.Edge
	for i, e := range g.EdgeSeq() {
		if len(out) == k {
			break
		}
		if g.EdgeAlive(i) && h.r.Intn(3) == 0 {
			out = append(out, e)
		}
	}
	return out
}

func (h *seedRig) must(g *cutfit.Graph, err error) *cutfit.Graph {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
	return g
}

// base is a sparse random graph on vertices 100..399 — a giant component, a
// fringe of small ones and plenty of bridges, so retractions really split —
// run cold once.
func (h *seedRig) base() *cutfit.Graph {
	g := h.graphOf(h.edges(330, 100, 300))
	h.run(g, "cold/no_parent")
	return g
}

// seedScenarios are the generation steps of the equivalence matrix.
var seedScenarios = map[string]func(h *seedRig){
	"append": func(h *seedRig) {
		g := h.must(h.se.AppendEdges(h.base(), h.edges(25, 100, 300)))
		h.run(g, "seeded/parent")
	},
	"retract": func(h *seedRig) {
		g := h.base()
		g = h.must(h.se.RemoveEdges(g, h.live(g, 30)))
		h.run(g, "seeded/parent")
	},
	"slide": func(h *seedRig) {
		g := h.must(h.se.SlideWindow(h.base(), h.edges(20, 100, 300), nil, 40))
		h.run(g, "seeded/parent")
	},
	"new vertices": func(h *seedRig) {
		// Below every old vertex (a new minimum for the giant component, and
		// every dense index shifts), between them and above.
		batch := []cutfit.Edge{{Src: 7, Dst: 250}, {Src: 3, Dst: 7}, {Src: 5000, Dst: 101}, {Src: 6000, Dst: 6001}}
		g := h.must(h.se.AppendEdges(h.base(), batch))
		h.run(g, "seeded/parent")
	},
	"append after retract": func(h *seedRig) {
		g := h.base()
		gone := h.live(g, 30)
		g = h.must(h.se.RemoveEdges(g, gone))
		h.run(g, "seeded/parent")
		g = h.must(h.se.AppendEdges(g, gone[:10]))
		h.run(g, "seeded/parent")
	},
	"two steps from the answer": func(h *seedRig) {
		g := h.base()
		g = h.must(h.se.RemoveEdges(g, h.live(g, 20)))
		g = h.must(h.se.AppendEdges(g, h.edges(20, 90, 320)))
		g = h.must(h.se.RemoveEdges(g, h.live(g, 20)))
		h.run(g, "seeded/parent")
	},
	"compaction boundary": func(h *seedRig) {
		g := h.base()
		g = h.must(h.se.SlideWindow(g, nil, nil, g.NumEdges()/3))
		if g.NumDeadEdges() != 0 {
			h.t.Fatalf("retracting a third of the edges left %d tombstones: no compaction", g.NumDeadEdges())
		}
		h.run(g, "cold/no_parent")
		g = h.must(h.se.AppendEdges(g, h.edges(15, 100, 300)))
		h.run(g, "seeded/parent")
	},
	"capped parent": func(h *seedRig) {
		g := h.graphOf(h.edges(330, 100, 300))
		if _, err := h.se.Run(context.Background(), g, h.s, h.parts, "cc", 2); err != nil {
			h.t.Fatal(err)
		}
		g = h.must(h.se.AppendEdges(g, h.edges(15, 100, 300)))
		h.run(g, "cold/no_answer")
		g = h.must(h.se.AppendEdges(g, h.edges(15, 100, 300)))
		h.run(g, "seeded/parent")
	},
	"capped child": func(h *seedRig) {
		g := h.must(h.se.AppendEdges(h.base(), h.edges(25, 100, 300)))
		before := runStarts(h.t)
		rep, err := h.se.Run(context.Background(), g, h.s, h.parts, "cc", 2)
		if err != nil {
			h.t.Fatal(err)
		}
		want, err := (&cutfit.Session{}).Run(context.Background(), g, h.s, h.parts, "cc", 2)
		if err != nil {
			h.t.Fatal(err)
		}
		if rep.Seeded || rep.Components != want.Components || rep.Supersteps != 2 {
			h.t.Fatalf("capped run on a generation with a parent answer: %+v, a one-shot session reports %+v", rep, want)
		}
		if after := runStarts(h.t); after["cold/capped"] != before["cold/capped"]+2 {
			h.t.Fatalf("two capped runs were not counted as cold/capped: %v -> %v", before, after)
		}
		h.run(g, "seeded/parent")
	},
}

// TestSeededMatchesCold is the equivalence matrix of seeded starts: every
// kind of generation step × dense and block tier × 1, 8 and 64 partitions ×
// a strategy whose topologies are patched along the chain (2D) and one whose
// topologies are rebuilt (Range). A seeded run's labels equal a cold run's
// and union-find's exactly, the stamp invariant holds on the answer it
// leaves, and every run is counted under the start it took.
func TestSeededMatchesCold(t *testing.T) {
	for _, block := range []bool{false, true} {
		for _, parts := range []int{1, 8, 64} {
			for _, s := range []cutfit.Strategy{cutfit.EdgePartition2D(), cutfit.RangeCut()} {
				for name, scenario := range seedScenarios {
					t.Run(fmt.Sprintf("block=%v/%d/%s/%s", block, parts, s.Name(), name), func(t *testing.T) {
						scenario(&seedRig{
							t: t, se: cutfit.NewSession(cutfit.SessionOptions{}),
							s: s, parts: parts, block: block, r: rand.New(rand.NewSource(int64(parts))),
						})
					})
				}
			}
		}
	}
}

// TestSeededFallsBackWhenAnswerIsGone: a cache too small to keep a parent's
// answer until the child runs, and a parent whose clock is spent, both run
// cold, say why, and are right.
func TestSeededFallsBackWhenAnswerIsGone(t *testing.T) {
	h := &seedRig{
		t: t, se: cutfit.NewSession(cutfit.SessionOptions{MaxCacheBytes: 1}),
		s: cutfit.EdgePartition2D(), parts: 8, r: rand.New(rand.NewSource(1)),
	}
	g := h.base()
	for i := 0; i < 3; i++ {
		g = h.must(h.se.AppendEdges(g, h.edges(10, 100, 300)))
		h.run(g, "cold/no_answer")
	}
	if st := h.se.CacheStats(); st.Seeded != 0 || st.Evictions == 0 {
		t.Fatalf("one-byte cache: %+v, want evictions and nothing seeded", st)
	}

	h.se = cutfit.NewSession(cutfit.SessionOptions{})
	g = h.base()
	spent := *answerOf(h.se, g)
	spent.Clock = 1 << 31
	h.se.PutAnswer(g, "cc", &spent)
	g = h.must(h.se.AppendEdges(g, h.edges(10, 100, 300)))
	h.run(g, "cold/clock")
	if a := answerOf(h.se, g); a.Clock >= spent.Clock {
		t.Fatalf("cold run after a spent clock left clock %d: want a fresh one", a.Clock)
	}
	g = h.must(h.se.AppendEdges(g, h.edges(10, 100, 300)))
	h.run(g, "seeded/parent")
}

// TestSeededRetractionShapes: retractions that split a component, or look as
// if they might, each on its smallest honest shape. Every shape is run cold,
// seeded after the retraction and seeded again after the retracted edges
// come back.
func TestSeededRetractionShapes(t *testing.T) {
	E := func(a, b int) cutfit.Edge { return cutfit.Edge{Src: cutfit.VertexID(a), Dst: cutfit.VertexID(b)} }
	path := func(lo, hi int) (es []cutfit.Edge) {
		for v := lo; v < hi; v++ {
			if v%2 == 0 {
				es = append(es, E(v, v+1))
			} else {
				es = append(es, E(v+1, v)) // both edge directions carry labels
			}
		}
		return es
	}
	clique := func(lo, n int) (es []cutfit.Edge) {
		for a := lo; a < lo+n; a++ {
			for b := a + 1; b < lo+n; b++ {
				es = append(es, E(b, a))
			}
		}
		return es
	}
	star := func(hub, lo, hi int) (es []cutfit.Edge) {
		for v := lo; v <= hi; v++ {
			es = append(es, E(hub, v))
		}
		return es
	}
	shapes := []struct {
		name    string
		edges   []cutfit.Edge
		retract []cutfit.Edge
		want    int // components after the retraction
	}{
		{"path cut in the middle", path(0, 40), []cutfit.Edge{E(20, 21)}, 2},
		{"ring cut once", append(path(0, 40), E(40, 0)), []cutfit.Edge{E(20, 21)}, 1},
		{"ring cut twice", append(path(0, 40), E(40, 0)), []cutfit.Edge{E(20, 21), E(6, 7)}, 2},
		{"star losing hub edges", star(100, 1, 40), []cutfit.Edge{E(100, 1), E(100, 2), E(100, 17), E(100, 40)}, 5},
		{"two cliques and a bridge", append(append(clique(0, 6), clique(10, 6)...), E(12, 3)), []cutfit.Edge{E(12, 3)}, 2},
		{"one of two parallel edges", append(path(0, 30), E(10, 11), E(14, 15)), []cutfit.Edge{E(10, 11), E(14, 15)}, 1},
		{"self-loops", append(path(0, 30), E(5, 5), E(5, 5), E(0, 0), E(29, 29)), []cutfit.Edge{E(5, 5), E(0, 0), E(6, 5)}, 2},
		{"minimum vertex cut off", path(0, 40), []cutfit.Edge{E(0, 1)}, 2},
		{"minimum vertex cut off a ring", append(path(0, 40), E(40, 0)), []cutfit.Edge{E(0, 1), E(40, 0)}, 2},
		{"pendant endpoint left isolated", append(path(0, 30), E(50, 10)), []cutfit.Edge{E(50, 10)}, 2},
		{"tree under the cut", append(append(path(0, 20), star(10, 21, 30)...), star(25, 31, 40)...), []cutfit.Edge{E(10, 25)}, 2},
	}
	for _, sh := range shapes {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", sh.name, parts), func(t *testing.T) {
				h := &seedRig{t: t, se: cutfit.NewSession(cutfit.SessionOptions{}), s: cutfit.EdgePartition2D(), parts: parts}
				g := h.graphOf(sh.edges)
				h.run(g, "cold/no_parent")
				cut := h.must(h.se.RemoveEdges(g, sh.retract))
				h.run(cut, "seeded/parent")
				if _, n := cut.ConnectedComponents(); n != sh.want {
					t.Fatalf("the shape has %d components after the retraction, the table says %d", n, sh.want)
				}
				h.run(h.must(h.se.AppendEdges(cut, sh.retract)), "seeded/parent")
			})
		}
	}
}
