package cutfit_test

import (
	"context"
	"math/rand"
	"testing"

	"cutfit"
	"cutfit/internal/graph"
)

// The stateful property test of seeded starts (and of the generation steps
// under them): a script of register / append / remove / slide / run steps is
// interpreted against one caching Session whose budget holds only a few
// generations, so answers, topologies and assignments are evicted mid-chain,
// and against a model that is nothing but a multiset of live edges per
// generation. After every step cc runs through the Session and must report
// what union-find over the model's edges finds, and every answer the cache
// still holds must be union-find's labels on its own generation and carry the
// stamp invariant. TestSessionStreamModel feeds it long random scripts from
// fixed seeds; FuzzSessionStream feeds it whatever the fuzzer finds.

// modelGen is one generation as the model sees it.
type modelGen struct {
	g    *cutfit.Graph
	live []cutfit.Edge // multiset, in no order
}

// modelSlot is one registered graph: its strategy and the last few
// generations of its chain, tip last.
type modelSlot struct {
	s     cutfit.Strategy
	parts int
	gens  []modelGen
}

const modelKeptGens = 4

// modelComponents counts components of (verts, edges) by union-find, knowing
// nothing of the graph package's own.
func modelComponents(verts []cutfit.VertexID, edges []cutfit.Edge) int {
	parent := make(map[cutfit.VertexID]cutfit.VertexID, len(verts))
	for _, v := range verts {
		parent[v] = v
	}
	var find func(v cutfit.VertexID) cutfit.VertexID
	find = func(v cutfit.VertexID) cutfit.VertexID {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	n := len(verts)
	for _, e := range edges {
		if a, b := find(e.Src), find(e.Dst); a != b {
			parent[a] = b
			n--
		}
	}
	return n
}

// streamModel interprets a script.
type streamModel struct {
	t      testing.TB
	se     *cutfit.Session
	script []byte
	slots  [2]*modelSlot
	runs   int
}

func (m *streamModel) next() int {
	if len(m.script) == 0 {
		return 0
	}
	b := m.script[0]
	m.script = m.script[1:]
	return int(b)
}

// edges reads k edges over a 48-vertex universe: small enough that appends
// merge components and retractions split them all the time.
func (m *streamModel) edges(k int) []cutfit.Edge {
	out := make([]cutfit.Edge, k)
	for i := range out {
		out[i] = cutfit.Edge{Src: cutfit.VertexID(m.next() % 48), Dst: cutfit.VertexID(m.next() % 48)}
	}
	return out
}

// check runs cc on gen through the Session and compares with the model.
func (m *streamModel) check(sl *modelSlot, gen modelGen) {
	m.t.Helper()
	rep, err := m.se.Run(context.Background(), gen.g, sl.s, sl.parts, "cc", 0)
	if err != nil {
		m.t.Fatal(err)
	}
	m.runs++
	if want := modelComponents(gen.g.Vertices(), gen.live); rep.Components != want || !rep.Converged {
		m.t.Fatalf("run %d (seeded=%v): cc found %d components (converged=%v), the model has %d over %d live edges",
			m.runs, rep.Seeded, rep.Components, rep.Converged, want, len(gen.live))
	}
	if gen.g.NumLiveEdges() != len(gen.live) {
		m.t.Fatalf("generation holds %d live edges, the model %d", gen.g.NumLiveEdges(), len(gen.live))
	}
	checkAnswers(m.t, m.se)
}

// push records a new generation of sl and checks it.
func (m *streamModel) push(sl *modelSlot, gen modelGen) {
	m.t.Helper()
	if n := len(sl.gens); n > 0 && sl.gens[n-1].g == gen.g {
		return // a zero-net step minted nothing
	}
	sl.gens = append(sl.gens, gen)
	if len(sl.gens) > modelKeptGens {
		sl.gens = sl.gens[1:]
	}
	m.check(sl, gen)
}

// step interprets one operation; it reports false when the script is spent.
func (m *streamModel) step() bool {
	if len(m.script) == 0 {
		return false
	}
	op := m.next()
	sl := m.slots[op>>3&1]
	if sl == nil || op&7 == 0 && op>>6 == 0 {
		// Register: a fresh graph, dense or block-backed, under a patched (2D)
		// or a rebuilt (Range) strategy, on one partition or several.
		flags := m.next()
		edges := m.edges(8 + m.next()%40)
		sl = &modelSlot{s: cutfit.EdgePartition2D(), parts: 1 + flags>>2&1*5}
		if flags&1 != 0 {
			sl.s = cutfit.RangeCut()
		}
		var g *cutfit.Graph
		if flags&2 != 0 {
			bb := graph.NewBlockBuilder(16)
			bb.Append(edges, nil)
			g = graph.FromBlocks(bb.Finish())
		} else {
			g = cutfit.FromEdges(append([]cutfit.Edge(nil), edges...))
		}
		m.slots[op>>3&1] = sl
		m.push(sl, modelGen{g: g, live: edges})
		return true
	}
	// Every other step starts from one of the kept generations: usually the
	// tip, now and then an older one, which forks the lineage.
	from := sl.gens[len(sl.gens)-1]
	if op>>4&3 == 0 {
		from = sl.gens[m.next()%len(sl.gens)]
	}
	live := append([]cutfit.Edge(nil), from.live...)
	switch op & 7 {
	case 0, 1, 2: // append
		batch := m.edges(1 + m.next()%6)
		g, err := m.se.AppendEdges(from.g, batch)
		if err != nil {
			m.t.Fatal(err)
		}
		m.push(sl, modelGen{g: g, live: append(live, batch...)})
	case 3, 4: // remove live edges (a value may be picked twice: only as often as it is live)
		var batch []cutfit.Edge
		for k := 1 + m.next()%4; k > 0 && len(live) > 0; k-- {
			i := m.next() % len(live)
			batch = append(batch, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		g, err := m.se.RemoveEdges(from.g, batch)
		if err != nil {
			m.t.Fatal(err)
		}
		m.push(sl, modelGen{g: g, live: live})
	case 5: // slide: append and expire a prefix of the dense list
		batch := m.edges(m.next() % 5)
		before := m.next() % (from.g.NumEdges() + 1)
		for i, e := range from.g.EdgeSeq() {
			if i >= before {
				break
			}
			if !from.g.EdgeAlive(i) {
				continue
			}
			for j := range live {
				if live[j] == e {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}
		g, err := m.se.SlideWindow(from.g, batch, nil, before)
		if err != nil {
			m.t.Fatal(err)
		}
		m.push(sl, modelGen{g: g, live: append(live, batch...)})
	case 6: // a capped run: leaves no answer, and must match a one-shot session's
		iters := 1 + m.next()%3
		rep, err := m.se.Run(context.Background(), from.g, sl.s, sl.parts, "cc", iters)
		if err != nil {
			m.t.Fatal(err)
		}
		want, err := (&cutfit.Session{}).Run(context.Background(), from.g, sl.s, sl.parts, "cc", iters)
		if err != nil {
			m.t.Fatal(err)
		}
		if rep.Seeded || rep.Components != want.Components || rep.Supersteps != want.Supersteps {
			m.t.Fatalf("capped run (%d rounds): %d components in %d supersteps (seeded=%v), a one-shot session %d in %d",
				iters, rep.Components, rep.Supersteps, rep.Seeded, want.Components, want.Supersteps)
		}
	case 7: // run again where we are
		m.check(sl, from)
	}
	return true
}

// runStreamScript interprets script on a fresh Session whose budget holds
// the artifacts of about four of the model's generations — most runs find
// their parent's answer, some find it evicted — and returns the interpreter
// and the number of steps it took.
func runStreamScript(t testing.TB, script []byte) (*streamModel, int) {
	m := &streamModel{t: t, se: cutfit.NewSession(cutfit.SessionOptions{MaxCacheBytes: 48 << 10}), script: script}
	steps := 0
	for m.step() {
		steps++
	}
	return m, steps
}

func TestSessionStreamModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		script := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(script)
		m, steps := runStreamScript(t, script)
		st := m.se.CacheStats()
		t.Logf("seed %d: %d steps, %d checked runs, %d seeded, %d evictions", seed, steps, m.runs, st.Seeded, st.Evictions)
		if steps < 200 {
			t.Errorf("seed %d: script ran only %d steps, want ≥ 200", seed, steps)
		}
		if st.Seeded < int64(m.runs)/4 || st.Seeded == int64(m.runs) {
			t.Errorf("seed %d: %d of %d runs seeded: want both kinds of start well represented", seed, st.Seeded, m.runs)
		}
		if st.Evictions == 0 {
			t.Errorf("seed %d: the budget never evicted", seed)
		}
	}
}

func FuzzSessionStream(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		script := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	// Register, retract the bridge of a path, append it back, slide.
	f.Add([]byte{0, 0, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 0x13, 0, 4, 0x11, 0, 5, 6, 0x15, 1, 9, 9, 7, 0x17})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runStreamScript(t, script)
	})
}
