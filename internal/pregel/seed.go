package pregel

import (
	"context"
	"errors"
	"iter"
	"math/bits"
	"slices"
	"unsafe"

	"cutfit/internal/graph"
	"cutfit/internal/par"
)

// Answer is a converged run's result kept for the generations that descend
// from G: the final vertex values plus, per vertex, the stamp of the
// superstep in which the vertex last changed, on a clock that keeps counting
// from generation to generation. Everything is aligned with G.Vertices() and
// read-only once returned.
//
// The stamps carry one invariant, which is what lets a descendant start from
// the answer instead of from superstep 0: every vertex whose value is not
// its own initial value has a live neighbour in G with the same value and a
// strictly smaller stamp — the neighbour it heard the value from. Following
// those neighbours reaches, through strictly decreasing stamps, the vertex
// the value started at, so every value is the initial value of a vertex in
// the same component.
type Answer[V any] struct {
	G      *graph.Graph
	Vals   []V
	Stamps []uint32
	// Clock is the stamp of the run's last superstep: no stamp is larger.
	Clock uint32
}

// StoredAnswer is what a cache needs of an Answer, whatever its value type.
type StoredAnswer interface {
	MemoryFootprint() int64
	Shares() []graph.Share
}

// MemoryFootprint is what the answer alone retains: a value and a stamp per
// vertex.
func (a *Answer[V]) MemoryFootprint() int64 {
	var v V
	return int64(len(a.Vals))*int64(unsafe.Sizeof(v)) + int64(len(a.Stamps))*4
}

// Shares lists what the answer keeps alive together with other artifacts:
// its generation.
func (a *Answer[V]) Shares() []graph.Share { return a.G.Shares() }

// Parent places a cached ancestor answer under the topology about to run.
type Parent struct {
	// Answer is the ancestor's *Answer[V], V the program's value type.
	Answer StoredAnswer
	// OldLen is the ancestor's dense edge count: the run's graph holds the
	// ancestor's edges at [0, OldLen), live or since tombstoned, and what was
	// appended since behind them.
	OldLen int
	// Remap takes the ancestor's dense vertex indices to the run's graph's
	// (graph.RemapVertices); nil means identity.
	Remap []int32
}

// Start is how a stamped run begins. The zero value but for Stamps (one zero
// per vertex) is a cold start that records stamps; with Vals set the engine
// skips superstep 0, takes Vals as the master values and Active as the
// frontier, ships every master to its mirrors before the first scan and
// stamps superstep k of the run Clock+k. The run writes Stamps in place.
type Start[V any] struct {
	Vals   []V
	Stamps []uint32
	Active []uint64
	Clock  uint32
}

// maxSeedClock is the largest parent clock a seeded start continues from; a
// run's supersteps cannot reach the other half of the uint32 range.
const maxSeedClock = 1 << 31

// ErrStampClock is SeedLabels refusing a parent whose clock is about to
// overflow; the caller runs cold, which starts the clock again at 0.
var ErrStampClock = errors.New("pregel: change-stamp clock exhausted")

// RunStamped executes prog like Run and returns the result as an Answer with
// its change stamps: from superstep 0 when from is nil, else from the seeded
// start (see SeedLabels). A vertex counts as changed whenever a message was
// applied to it, so the stamp invariant needs a program that only messages a
// vertex to change it. The answer is only worth keeping if the run converged.
func RunStamped[V, M any](ctx context.Context, pg *PartitionedGraph, prog Program[V, M], from *Start[V]) (*Answer[V], *RunStats, error) {
	if from == nil {
		from = &Start[V]{Stamps: make([]uint32, pg.G.NumVertices())}
	}
	vals, stats, err := runEngine(ctx, pg, prog, nil, from)
	if err != nil {
		return nil, nil, err
	}
	return &Answer[V]{G: pg.G, Vals: vals, Stamps: from.Stamps, Clock: from.Clock + uint32(stats.NumSupersteps())}, stats, nil
}

// SeedLabels turns an ancestor generation's converged answer into a seeded
// start on pg, for programs of the label-propagation kind: a vertex starts
// at init(id), values only ever move one way along an order, and at the
// fixpoint both endpoints of every edge agree (Connected Components: the
// smallest vertex ID of the component). It
//
//   - carries values and stamps over to pg.G's dense indices; vertices the
//     ancestor did not have start at init with the parent's clock;
//   - trims what the retracted edges supported (KickStarter, Vora et al.,
//     ASPLOS 2017): of every retracted edge whose endpoints carry different
//     stamps the later-stamped endpoint is a suspect; a suspect left with no
//     live neighbour of equal value and strictly smaller stamp that has not
//     itself been reset is reset to init (stamp = clock), and its later-stamped
//     neighbours become suspects in turn. The retracted edges' suspects are
//     checked on every core before the serial worklist takes the unsupported
//     ones. Neighbours are read off pg's frontier index, which the seeded run
//     needs anyway, in the partitions a binary search of their sorted mirror
//     tables finds the vertex in, stopping once its replica count is met;
//   - puts the reset vertices, and both endpoints of every appended edge
//     whose endpoints' values disagree, on the frontier.
//
// Afterwards every value is still the initial value of a vertex in the same
// component of pg.G (the stamp invariant holds over the live edges), and an
// edge whose endpoints disagree was appended disagreeing or touches a reset
// vertex — so it touches the frontier, and propagation from here reaches the
// same fixpoint as from superstep 0. An edge whose endpoints agree sends
// nothing in a label-propagation program, so it needs no frontier.
func SeedLabels[V comparable](pg *PartitionedGraph, parent *Answer[V], oldLen int, remap []int32, init func(graph.VertexID) V) (*Start[V], error) {
	if parent.Clock >= maxSeedClock {
		return nil, ErrStampClock
	}
	g := pg.G
	verts := g.Vertices()
	nv := len(verts)
	clock := parent.Clock
	st := &Start[V]{
		Vals:   make([]V, nv),
		Stamps: make([]uint32, nv),
		Active: make([]uint64, (nv+63)/64),
		Clock:  clock,
	}
	vals, stamps := st.Vals, st.Stamps
	if remap == nil {
		n := copy(vals, parent.Vals)
		copy(stamps, parent.Stamps)
		for v := n; v < nv; v++ {
			vals[v], stamps[v] = init(verts[v]), clock
		}
	} else {
		for v, id := range verts {
			vals[v], stamps[v] = init(id), clock
		}
		for old, v := range remap {
			vals[v], stamps[v] = parent.Vals[old], parent.Stamps[old]
		}
	}
	activate := func(v int32) { st.Active[v>>6] |= 1 << (uint32(v) & 63) }
	index := func(id graph.VertexID) int32 {
		v, _ := slices.BinarySearch(verts, id)
		return int32(v)
	}
	// When the ancestor is g's direct parent, the step that minted g already
	// resolved the batch's endpoints; the searches are the fallback.
	step := g.StepFrom(parent.G)

	// Appended since the ancestor and still live: an edge whose endpoints
	// disagree puts both on the frontier. One whose endpoints agree sends
	// nothing; should the trim below reset an endpoint, the reset activates it.
	if ne := g.NumEdges(); ne > oldLen {
		dead := g.NumDeadEdges()
		edges, _ := g.EdgeRange(oldLen, ne)
		for i, e := range edges {
			if dead != 0 && !g.EdgeAlive(oldLen+i) {
				continue
			}
			var a, b int32
			if step != nil {
				a, b = step.SufSrc[i], step.SufDst[i]
			} else {
				a, b = index(e.Src), index(e.Dst)
			}
			if vals[a] != vals[b] {
				activate(a)
				activate(b)
			}
		}
	}

	// Retracted since the ancestor: the later-stamped endpoint is a suspect.
	var suspects []int32
	oldDead, newDead := parent.G.Tombstones(), g.Tombstones()
	k := 0 // retracted edges met so far, in position order
	for w := 0; w<<6 < oldLen && w < len(newDead); w++ {
		diff := newDead[w]
		if w < len(oldDead) {
			diff &^= oldDead[w]
		}
		if diff &= fullWord(w, oldLen); diff == 0 {
			continue
		}
		edges, _ := g.EdgeRange(w<<6, min(w<<6+64, oldLen))
		for ; diff != 0; diff &= diff - 1 {
			var a, b int32
			if step != nil && step.RemSrc != nil {
				a, b = step.RemSrc[k], step.RemDst[k]
			} else {
				e := edges[bits.TrailingZeros64(diff)]
				a, b = index(e.Src), index(e.Dst)
			}
			k++
			switch {
			case stamps[a] < stamps[b]:
				suspects = append(suspects, b)
			case stamps[b] < stamps[a]:
				suspects = append(suspects, a)
			}
		}
	}
	if len(suspects) == 0 {
		return st, nil
	}
	// The trim walks a few neighbourhoods in partitions spread over the whole
	// topology; building their frontier indexes one by one from here would
	// serialize what the first sparse scan does on every core.
	if err := par.ForEach(context.Background(), pg.Parallelism, pg.NumParts, func(p int) { pg.Parts[p].ensureFrontierIndex() }); err != nil {
		return nil, err
	}
	reps := pg.ReplicaCounts()
	// A reset vertex holds its own initial value again, so it reads as a root
	// from then on: never reset twice, and no support for a neighbour (whose
	// value it could only share by having been that value's root, and roots
	// are never suspects' victims — nothing is stamped earlier than they are).
	unsupported := func(v int32) bool {
		val, stamp := vals[v], stamps[v]
		if val == init(verts[v]) {
			return false
		}
		for u := range pg.neighbors(reps, v) {
			if vals[u] == val && stamps[u] < stamp {
				return false
			}
		}
		return true
	}
	// The initial suspects are checked on every core: nothing is reset yet,
	// so the checks only read. Only the unsupported ones enter the worklist.
	// A reset only takes support away, and it pushes every later-stamped
	// neighbour of equal value — every vertex it could have supported — so
	// the worklist still reaches the one set of vertices left unsupported.
	keep := make([]bool, len(suspects))
	if err := par.Ranges(pg.Parallelism, len(suspects), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			keep[i] = unsupported(suspects[i])
		}
	}); err != nil {
		return nil, err
	}
	work := suspects[:0]
	for i, v := range suspects {
		if keep[i] {
			work = append(work, v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if !unsupported(v) {
			continue
		}
		val, stamp := vals[v], stamps[v]
		vals[v], stamps[v] = init(verts[v]), clock
		activate(v)
		for u := range pg.neighbors(reps, v) {
			if vals[u] == val && stamps[u] > stamp {
				work = append(work, u)
			}
		}
	}
	return st, nil
}

// neighbors yields the other endpoint of every live edge at global dense
// vertex v, partition by partition through the frontier index (an edge met
// from both sides, a parallel edge or a self-loop yields its vertex again).
// The partitions holding v are found by binary search in their sorted
// LocalVerts, ascending, and the search stops once it has found all reps[v]
// of them (reps from ReplicaCounts). The partitions' frontier indexes are
// built as needed.
func (pg *PartitionedGraph) neighbors(reps []int32, v int32) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		left := reps[v]
		for _, part := range pg.Parts {
			if left == 0 {
				return
			}
			l, ok := slices.BinarySearch(part.LocalVerts, v)
			if !ok {
				continue
			}
			left--
			part.ensureFrontierIndex()
			for _, j := range part.srcPos[part.srcOff[l]:part.srcOff[l+1]] {
				if !yield(part.LocalVerts[part.edges[j].dst]) {
					return
				}
			}
			for _, j := range part.dstPos[part.dstOff[l]:part.dstOff[l+1]] {
				if !yield(part.LocalVerts[part.edges[j].src]) {
					return
				}
			}
		}
	}
}
