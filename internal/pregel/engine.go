package pregel

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"time"
	"unsafe"

	"cutfit/internal/graph"
	"cutfit/internal/par"
)

// EdgeDirection selects which triplets the compute phase scans, matching
// GraphX Pregel's activeDirection.
type EdgeDirection int

const (
	// Out scans triplets whose source vertex received a message last round.
	Out EdgeDirection = iota
	// In scans triplets whose destination vertex received a message.
	In
	// Either scans triplets where either endpoint received a message.
	Either
	// Both scans triplets where both endpoints received messages.
	Both
	// AllEdges scans every triplet every superstep.
	AllEdges
)

// String implements fmt.Stringer.
func (d EdgeDirection) String() string {
	switch d {
	case Out:
		return "Out"
	case In:
		return "In"
	case Either:
		return "Either"
	case Both:
		return "Both"
	case AllEdges:
		return "All"
	}
	return fmt.Sprintf("EdgeDirection(%d)", int(d))
}

// sparseDenominator is the density rule that picks each partition's scan
// every superstep: the sparse path walks only the edges incident to
// frontier vertices, through the partition's frontier index, when
// active*sparseDenominator < localVertices (frontier below 12.5%); otherwise
// the dense scan visits every edge. Both paths deliver messages in identical
// (ascending edge) order, so the choice never changes results — only the
// work done.
// Below it the gather+scan cost (Σ deg(active) mark operations plus one
// word-skip pass over the edge bitmap) undercuts the dense per-edge
// activity tests; above it the dense scan's linear locality wins.
const sparseDenominator = 8

// Triplet presents one edge together with the current values of its
// endpoints to the send-message function. Endpoints are addressed by global
// dense vertex index — the position in Graph.Vertices(), Graph.OutDegrees()
// and every other per-vertex table — which is what the scan has in hand;
// per-vertex side data (degrees, precomputed sets) should be a slice
// indexed by SrcIdx/DstIdx, not a map keyed by vertex ID.
type Triplet[V any] struct {
	SrcIdx, DstIdx int32
	SrcVal, DstVal V

	verts []graph.VertexID
}

// SrcID resolves the source's vertex ID: one extra load per call. Worth
// calling only when the ID itself is the datum (an ordering between
// endpoints, a canonical edge key); to find per-vertex data, index a table
// by SrcIdx instead.
func (t *Triplet[V]) SrcID() graph.VertexID { return t.verts[t.SrcIdx] }

// DstID resolves the destination's vertex ID; see SrcID.
func (t *Triplet[V]) DstID() graph.VertexID { return t.verts[t.DstIdx] }

// Emitter delivers messages from a triplet to one of its endpoints. GraphX
// semantics: messages may only target the edge's own source or destination.
type Emitter[M any] interface {
	// ToSrc sends a message to the triplet's source vertex.
	ToSrc(m M)
	// ToDst sends a message to the triplet's destination vertex.
	ToDst(m M)
}

// Program defines a Pregel computation over vertex values V and messages M.
type Program[V, M any] struct {
	// Init produces the initial value of each vertex (before the initial
	// message is applied). Required.
	Init func(id graph.VertexID) V
	// VProg merges an incoming (already combined) message into the vertex
	// value. Required.
	VProg func(id graph.VertexID, val V, msg M) V
	// SendMsg inspects one active triplet and emits messages to its
	// endpoints. It runs once per scanned edge per superstep, so anything it
	// looks up per vertex should be a slice indexed by the triplet's
	// SrcIdx/DstIdx. Required.
	SendMsg func(t *Triplet[V], emit Emitter[M])
	// MergeMsg combines two messages bound for the same vertex. Must be
	// commutative and associative. Required.
	MergeMsg func(a, b M) M
	// InitialMsg is delivered to every vertex on superstep 0.
	InitialMsg M
	// MaxIterations caps the number of message rounds; 0 means no cap
	// (run until convergence).
	MaxIterations int
	// ActiveDirection selects which triplets are scanned (default Out).
	ActiveDirection EdgeDirection

	// StateBytes sizes a vertex value for traffic accounting; nil means a
	// constant 8 bytes, and costs no call per mirror.
	StateBytes func(val V) int
	// MsgBytes sizes a message for traffic accounting; nil means a constant
	// 8 bytes, and costs no call per message.
	MsgBytes func(m M) int
	// EdgeCost is the abstract compute cost of scanning one triplet; nil
	// means 1, and costs no call per edge. Heavy per-edge algorithms
	// (triangle intersection) override it.
	EdgeCost func(t *Triplet[V]) float64

	// OnSuperstep, if set, is called after every superstep with its
	// statistics. Returning ErrHalt stops the computation gracefully
	// (RunStats.Halted is set); any other non-nil error aborts the run.
	// Use it for convergence monitoring, logging or step budgets that
	// depend on runtime behavior rather than a fixed iteration count.
	OnSuperstep func(ss *SuperstepStats) error

	// scan overrides the density rule; only this package's tests set it,
	// to compare the dense and sparse paths directly.
	scan scanPath
}

// scanPath is the compute phase's scan choice: the density rule (the zero
// value, and the only one outside tests) or one path pinned.
type scanPath uint8

const (
	scanByDensity scanPath = iota
	scanDense
	scanSparse // AllEdges programs still scan densely: every edge is live
)

// ErrHalt, returned from Program.OnSuperstep, stops the computation after
// the current superstep without error.
var ErrHalt = errors.New("pregel: halt requested")

// StateSize is the accounted size of a vertex value: StateBytes(val), or 8
// when StateBytes is nil.
func (p *Program[V, M]) StateSize(val V) int {
	if p.StateBytes == nil {
		return 8
	}
	return p.StateBytes(val)
}

// MsgSize is the accounted size of a message: MsgBytes(m), or 8 when
// MsgBytes is nil.
func (p *Program[V, M]) MsgSize(m M) int {
	if p.MsgBytes == nil {
		return 8
	}
	return p.MsgBytes(m)
}

func (p *Program[V, M]) validate() error {
	if p.Init == nil || p.VProg == nil || p.SendMsg == nil || p.MergeMsg == nil {
		return fmt.Errorf("pregel: Program requires Init, VProg, SendMsg and MergeMsg")
	}
	if p.MaxIterations < 0 {
		return fmt.Errorf("pregel: MaxIterations must be non-negative, got %d", p.MaxIterations)
	}
	return nil
}

// engineScratch is the run-scoped buffer set of one Run invocation: master
// and mirror state, per-partition combine accumulators and the per-phase
// counter slices. It is fitted to the topology once per run and zeroed —
// never reallocated — between supersteps; with PartitionedGraph.ReuseBuffers
// (and pointer-free V and M, see parkable) it is parked in the lineage's pool
// after a successful run and revived by the next Run with matching V/M types
// on that topology or one ApplyDelta derived from it, so steady-state
// supersteps allocate only the two per-superstep stat slices that escape
// into RunStats.
//
// Every per-vertex, per-mirror and per-edge array is one flat buffer; the
// per-partition slices are views carved out of it. That is what lets a
// scratch move between topologies of different shape: fit reslices the flat
// buffers to the taker's sizes and reallocates one only when its capacity
// is short.
type engineScratch[V, M any] struct {
	// Master state, indexed by global dense vertex. changedBits is the
	// frontier as a bitset (bit v set ⇔ vertex v changed last superstep);
	// apply shards over whole words so every word has exactly one writer.
	masterVals  []V
	changedBits []uint64
	masterMsg   []M
	masterHas   []bool

	// Mirror state: valsBuf, accBuf and hasBuf hold one slot per mirror,
	// partition after partition; vals, msgAcc and msgHas index them by
	// [partition][local vertex].
	valsBuf []V
	accBuf  []M
	hasBuf  []bool
	vals    [][]V
	msgAcc  [][]M
	msgHas  [][]bool

	// frontier[p] is partition p's mirror-side frontier bitset (one bit per
	// local vertex), derived from changedBits at the start of every compute
	// phase by the partition's own worker, which pulls its mirror values in
	// the same pass — so no two workers ever touch the same word or slot.
	// edgeMask[p] is the sparse path's candidate-edge bitmap (one bit per
	// partition edge): the gather pass sets bits through the frontier
	// index, the scan pass consumes words in ascending order and clears
	// them, so the mask is all-zero between supersteps (and between runs).
	// Both are views of frontBuf and maskBuf, which only a frontier-driven
	// program makes fit allocate — an AllEdges program (PageRank) never
	// touches either.
	frontBuf, maskBuf  []uint64
	frontier, edgeMask [][]uint64

	// emitters[p] is partition p's reusable message emitter; its acc/has
	// point into msgAcc/msgHas. Slots are cache-line padded: workers scan
	// different partitions concurrently and bump emitted per edge, so
	// adjacent unpadded emitters would false-share.
	emitters []emitterSlot[M]

	// Per-shard / per-partition counters, rewritten each superstep.
	rMsgs, rBytes  []int64 // reduce, per shard
	applyCounts    []int64 // apply, per shard
	bMsgs, bBytes  []int64 // broadcast, per partition
	scanned        []int64 // compute, per partition
	emitted        []int64
	visited        []int64 // edges actually examined, per partition
	computePerPart []float64
	applyPerShard  []float64
}

// resized returns buf with length n, reusing its storage when the capacity
// allows. A first allocation is exact; a buffer that has proved too small
// once is replaced with an eighth of headroom, so a scratch following a
// growing lineage reallocates every few generations rather than every one.
// Contents are unspecified: callers overwrite or clear.
func resized[T any](buf []T, n int) []T {
	switch {
	case cap(buf) >= n:
		return buf[:n]
	case buf == nil:
		return make([]T, n)
	}
	return make([]T, n, n+n/8)
}

// fit shapes the scratch for a run on pg, whatever it was shaped for before,
// and clears the flag and mask arrays over the fitted extent. Value and
// message buffers need no clearing: every slot is rewritten before it is
// read (superstep 0 initializes all masters and all changed words, the first
// pull fills every mirror, the has-flags gate the accumulators, the frontier is
// rebuilt word-by-word each compute phase). The edge masks are all-zero by
// the scan pass's clear-as-you-go invariant, but only over the extent of the
// topology that parked them, so they are cleared here too. frontiers says
// whether the program scans by frontier (anything but AllEdges).
func (s *engineScratch[V, M]) fit(pg *PartitionedGraph, shards int, frontiers bool) {
	nv := pg.G.NumVertices()
	numParts := pg.NumParts
	s.masterVals = resized(s.masterVals, nv)
	s.changedBits = resized(s.changedBits, (nv+63)/64)
	s.masterMsg = resized(s.masterMsg, nv)
	s.masterHas = resized(s.masterHas, nv)
	clear(s.masterHas)

	mirrors, frontWords, maskWords := 0, 0, 0
	for _, part := range pg.Parts {
		mirrors += len(part.LocalVerts)
		frontWords += (len(part.LocalVerts) + 63) / 64
		maskWords += (len(part.edges) + 63) / 64
	}
	if !frontiers {
		frontWords, maskWords = 0, 0
	}
	s.valsBuf = resized(s.valsBuf, mirrors)
	s.accBuf = resized(s.accBuf, mirrors)
	s.hasBuf = resized(s.hasBuf, mirrors)
	clear(s.hasBuf)
	s.frontBuf = resized(s.frontBuf, frontWords)
	s.maskBuf = resized(s.maskBuf, maskWords)
	clear(s.maskBuf)

	s.vals = resized(s.vals, numParts)
	s.msgAcc = resized(s.msgAcc, numParts)
	s.msgHas = resized(s.msgHas, numParts)
	s.frontier = resized(s.frontier, numParts)
	s.edgeMask = resized(s.edgeMask, numParts)
	s.emitters = resized(s.emitters, numParts)
	at, fAt, mAt := 0, 0, 0
	for p, part := range pg.Parts {
		n := len(part.LocalVerts)
		s.vals[p] = s.valsBuf[at : at+n : at+n]
		s.msgAcc[p] = s.accBuf[at : at+n : at+n]
		s.msgHas[p] = s.hasBuf[at : at+n : at+n]
		at += n
		s.frontier[p], s.edgeMask[p] = nil, nil
		if frontiers {
			fw, mw := (n+63)/64, (len(part.edges)+63)/64
			s.frontier[p] = s.frontBuf[fAt : fAt+fw : fAt+fw]
			s.edgeMask[p] = s.maskBuf[mAt : mAt+mw : mAt+mw]
			fAt, mAt = fAt+fw, mAt+mw
		}
	}
	s.sizeCounters(numParts, shards)
}

// sizeCounters (re)allocates the small counter slices if the shard or
// partition count changed since the scratch was built.
func (s *engineScratch[V, M]) sizeCounters(numParts, shards int) {
	if len(s.rMsgs) != shards {
		s.rMsgs = make([]int64, shards)
		s.rBytes = make([]int64, shards)
		s.applyCounts = make([]int64, shards)
		s.applyPerShard = make([]float64, shards)
	}
	if len(s.scanned) != numParts {
		s.bMsgs = make([]int64, numParts)
		s.bBytes = make([]int64, numParts)
		s.scanned = make([]int64, numParts)
		s.emitted = make([]int64, numParts)
		s.visited = make([]int64, numParts)
		s.computePerPart = make([]float64, numParts)
	}
}

// footprint is the capacity of the flat buffers in bytes — what a parked
// scratch keeps alive (the per-partition views and counters are noise).
// Exact because only pointer-free slots are ever parked (see parkable).
func (s *engineScratch[V, M]) footprint() int64 {
	var v V
	var m M
	perVertex := int64(unsafe.Sizeof(v)) + int64(unsafe.Sizeof(m)) + 1
	return int64(cap(s.masterVals)+cap(s.valsBuf))*perVertex +
		int64(cap(s.changedBits)+cap(s.frontBuf)+cap(s.maskBuf))*8
}

// scratchKey returns the pool key of the [V, M] program type: the concrete
// scratch type's name. Computed once per Run; every instantiation of
// engineScratch formats to a distinct string.
func scratchKey[V, M any]() string {
	return fmt.Sprintf("%T", (*engineScratch[V, M])(nil))
}

// parkable reports whether scratches of this program type may be parked
// between runs. footprint prices a slot by unsafe.Sizeof, which is all a slot
// keeps alive only when neither V nor M holds a pointer; a map- or
// slice-valued program would leave the pool pinning heap that no cache can
// see, so it runs on fresh buffers every time.
func parkable[V, M any]() bool {
	return pointerFree(reflect.TypeFor[V]()) && pointerFree(reflect.TypeFor[M]())
}

// pointerFree reports whether values of type t are scalars all the way down.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// scratchFor checks a parked scratch of this program type out of the
// lineage's pool when reuse is set, else starts from an empty one, and fits
// it to pg. Concurrent Runs of the same program each get their own scratch:
// the pool hands out distinct buffer sets and runs that find the pool empty
// fall back to fresh allocation.
func scratchFor[V, M any](pg *PartitionedGraph, shards int, frontiers, reuse bool) *engineScratch[V, M] {
	var s *engineScratch[V, M]
	if reuse {
		s, _ = pg.scratch.take(scratchKey[V, M]()).(*engineScratch[V, M])
	}
	if s != nil {
		mScratchReused.Inc()
	} else {
		mScratchAllocated.Inc()
		s = &engineScratch[V, M]{}
	}
	s.fit(pg, shards, frontiers)
	return s
}

// Exchanger replaces the mirror half of a superstep — broadcast, the
// per-partition compute scan and the reduce transport — with an external
// implementation; internal/dist plugs the multi-process cluster in here.
// Superstep 0, message application (apply) and the loop control stay in the
// engine, shared verbatim with the local path, so an Exchanger that
// preserves the engine's message semantics yields bit-identical results.
//
// Exchange contract, per superstep:
//   - changed is the master frontier bitset (bit v ⇔ vertex v's master
//     value changed last round) and masterVals the current master values;
//     both are read-only.
//   - Combined messages must be handed to deliver as (global dense vertex,
//     message), at most once per (partition, vertex) pair, with each
//     vertex's calls one after another in ascending partition order — the
//     same per-destination merge order the local reduce phase uses. Calls
//     for different vertices may run concurrently, which is how an exchanger
//     shards its merge by vertex range the way the local reduce phase does.
//   - ss must be filled with the phase counters the engine cannot see:
//     BroadcastMsgs/BroadcastBytes, EdgesScanned, ActiveEdges, MsgsEmitted,
//     ComputePerPart, and ReduceMsgs/ReduceBytes — one message of
//     Program.MsgSize bytes per deliver call, summed however the exchanger
//     shards them.
type Exchanger[V, M any] interface {
	Exchange(ctx context.Context, step int, changed []uint64, masterVals []V, deliver func(gidx int32, m M), ss *SuperstepStats) error
}

// Run executes the program on the partitioned graph and returns the final
// vertex values (indexed by the graph's dense vertex order, i.e. aligned
// with pg.G.Vertices()) and the per-superstep statistics.
func Run[V, M any](ctx context.Context, pg *PartitionedGraph, prog Program[V, M]) ([]V, *RunStats, error) {
	return runEngine[V, M](ctx, pg, prog, nil, nil)
}

// RunExchanged executes the program with the mirror-side phases delegated
// to ex — the distributed engine entry point. See Exchanger for the
// contract that keeps results bit-identical to Run.
func RunExchanged[V, M any](ctx context.Context, pg *PartitionedGraph, prog Program[V, M], ex Exchanger[V, M]) ([]V, *RunStats, error) {
	if ex == nil {
		return nil, nil, errors.New("pregel: RunExchanged requires an Exchanger")
	}
	return runEngine(ctx, pg, prog, ex, nil)
}

// fullWord is word wi of a bitset whose first nv bits (and no others) are set.
func fullWord(wi, nv int) uint64 {
	if n := nv - wi<<6; n < 64 {
		return 1<<uint(n) - 1
	}
	return ^uint64(0)
}

// runEngine is the one BSP loop. start is nil for a plain run; a non-nil
// start asks for change stamps and, when it carries values, replaces
// superstep 0 with them (see Start).
func runEngine[V, M any](ctx context.Context, pg *PartitionedGraph, prog Program[V, M], ex Exchanger[V, M], start *Start[V]) ([]V, *RunStats, error) {
	if err := prog.validate(); err != nil {
		return nil, nil, err
	}
	g := pg.G
	verts := g.Vertices()
	nv := len(verts)
	numParts := pg.NumParts
	// The frontier bitset spans nv bits; apply shards over its words so each
	// word has exactly one writer.
	nw := (nv + 63) / 64

	// One worker count for the whole run: the apply and reduce counters are
	// sized by it and par.Ranges must cut the same number of ranges.
	shards := par.DefaultParallelism()

	reuse := pg.ReuseBuffers && parkable[V, M]()
	sc := scratchFor[V, M](pg, shards, prog.ActiveDirection != AllEdges, reuse)
	masterVals := sc.masterVals
	changedBits := sc.changedBits
	masterMsg := sc.masterMsg
	masterHas := sc.masterHas
	msgAcc := sc.msgAcc
	msgHas := sc.msgHas
	for p := 0; p < numParts; p++ {
		sc.emitters[p].partEmitter = partEmitter[M]{
			merge: prog.MergeMsg,
			acc:   msgAcc[p],
			has:   msgHas[p],
		}
	}

	var stamps []uint32
	var clock uint32
	if start != nil {
		stamps, clock = start.Stamps, start.Clock
	}
	// fill says the mirrors hold nothing yet: the next broadcast fills every
	// mirror, whatever the frontier. Superstep 0 leaves every vertex changed,
	// so a cold run gets that for free; a seeded start has to ask.
	fill := false
	activeCount := int64(nv)
	if start != nil && start.Vals != nil {
		copy(masterVals, start.Vals)
		copy(changedBits, start.Active)
		activeCount = 0
		for _, w := range changedBits {
			activeCount += int64(bits.OnesCount64(w))
		}
		fill = true
	} else if err := par.Ranges(shards, nw, func(_, lo, hi int) {
		// Superstep 0: every vertex applies the initial message at the
		// master. Sharded over bitset words, so every changedBits word is
		// written whole by exactly one shard.
		for wi := lo; wi < hi; wi++ {
			base := wi << 6
			end := min(base+64, nv)
			for v := base; v < end; v++ {
				id := verts[v]
				masterVals[v] = prog.VProg(id, prog.Init(id), prog.InitialMsg)
			}
			changedBits[wi] = fullWord(wi, nv)
		}
	}); err != nil {
		return nil, nil, err
	}

	stats := &RunStats{}

	for step := 1; activeCount > 0; step++ {
		if prog.MaxIterations > 0 && step > prog.MaxIterations {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("pregel: superstep %d: %w", step, err)
		}
		stepStart := time.Now()
		ss := SuperstepStats{
			Superstep:      step,
			ActiveVertices: activeCount,
		}

		if ex != nil {
			// Phases 1–3, distributed: the exchanger ships the frontier,
			// runs the compute scans remotely and hands the combined messages
			// back; the merge below is the local reduce phase's per-vertex
			// merge verbatim (each slot has one writer at a time), so
			// per-destination combine order is preserved.
			deliver := func(gidx int32, m M) {
				if masterHas[gidx] {
					masterMsg[gidx] = prog.MergeMsg(masterMsg[gidx], m)
				} else {
					masterMsg[gidx] = m
					masterHas[gidx] = true
				}
			}
			if err := ex.Exchange(ctx, step, changedBits, masterVals, deliver, &ss); err != nil {
				return nil, nil, fmt.Errorf("pregel: superstep %d exchange: %w", step, err)
			}
		} else if err := localSuperstep(ctx, pg, &prog, sc, &ss, step, shards, nv, fill); err != nil {
			return nil, nil, err
		}
		fill = false

		// Phase 4: apply at the master. Sharded over frontier words, so
		// every changedBits word is rebuilt whole by exactly one shard.
		counts := sc.applyCounts
		applyPerShard := sc.applyPerShard
		clear(counts)
		clear(applyPerShard)
		if err := par.Ranges(shards, nw, func(sh, lo, hi int) {
			var n int64
			for wi := lo; wi < hi; wi++ {
				var w uint64
				base := wi << 6
				end := base + 64
				if end > nv {
					end = nv
				}
				for v := base; v < end; v++ {
					if masterHas[v] {
						masterVals[v] = prog.VProg(verts[v], masterVals[v], masterMsg[v])
						masterHas[v] = false
						w |= 1 << uint(v-base)
						n++
					}
				}
				changedBits[wi] = w
				if stamps != nil {
					for ; w != 0; w &= w - 1 {
						stamps[base+bits.TrailingZeros64(w)] = clock + uint32(step)
					}
				}
			}
			counts[sh] = n
			applyPerShard[sh] = float64(n) // one unit per applied vertex
		}); err != nil {
			return nil, nil, fmt.Errorf("pregel: superstep %d apply: %w", step, err)
		}
		activeCount = 0
		for _, c := range counts {
			activeCount += c
		}
		ss.ApplyPerShard = append([]float64(nil), applyPerShard...)

		hSuperstepSeconds.Observe(time.Since(stepStart).Seconds())
		hActiveEdges.Observe(float64(ss.ActiveEdges))
		stats.Supersteps = append(stats.Supersteps, ss)
		if prog.OnSuperstep != nil {
			switch err := prog.OnSuperstep(&stats.Supersteps[len(stats.Supersteps)-1]); {
			case errors.Is(err, ErrHalt):
				stats.Halted = true
				stats.Converged = false
				return finishRun(pg, sc, reuse), stats, nil
			case err != nil:
				return nil, nil, fmt.Errorf("pregel: superstep %d monitor: %w", step, err)
			}
		}
	}
	stats.Converged = activeCount == 0
	return finishRun(pg, sc, reuse), stats, nil
}

// localSuperstep runs phases 1–3 of one superstep in-process: mirrors pull
// their changed masters, every partition computes, the combined messages
// reduce back to the master arrays. Factored out of runEngine so the
// distributed branch above replaces exactly this block and nothing else.
func localSuperstep[V, M any](ctx context.Context, pg *PartitionedGraph, prog *Program[V, M], sc *engineScratch[V, M], ss *SuperstepStats, step, shards, nv int, fill bool) error {
	verts := pg.G.Vertices()
	numParts := pg.NumParts
	masterMsg := sc.masterMsg
	masterHas := sc.masterHas
	msgAcc := sc.msgAcc
	msgHas := sc.msgHas

	// Phases 1 and 2: broadcast and compute, partition by partition on the
	// partition's own worker. pullMirrors copies the changed masters into the
	// partition's mirror slots and derives its frontier in one pass (no slot
	// or word is shared between workers, and masters are read-only until
	// apply), then computePart scans — the same two calls the distributed
	// worker makes, so both paths deliver messages in ascending edge order
	// and results are identical; only where the scan executes differs. It
	// hands ctx to the fan-out exactly as the worker's Scan does, so no
	// partition starts once ctx is done: a caller that gave up costs each
	// scan goroutine at most the partition it is in.
	scanned := sc.scanned
	emitted := sc.emitted
	visited := sc.visited
	if err := par.ForEach(ctx, shards, numParts, func(p int) {
		part := pg.Parts[p]
		em := &sc.emitters[p].partEmitter
		em.emitted = 0

		fw := sc.frontier[p] // nil for an AllEdges program
		act, msgs, bytes := pullMirrors(prog, part, sc.vals[p], sc.masterVals, sc.changedBits, fill, fw)
		sc.bMsgs[p], sc.bBytes[p] = msgs, bytes
		nScan, nVisited, cost := computePart(prog, part, verts, sc.vals[p], fw, act, sc.edgeMask[p], em)
		scanned[p] = nScan
		emitted[p] = em.emitted
		visited[p] = nVisited
		sc.computePerPart[p] = cost
	}); err != nil {
		return fmt.Errorf("pregel: superstep %d compute: %w", step, err)
	}
	for p := 0; p < numParts; p++ {
		ss.BroadcastMsgs += sc.bMsgs[p]
		ss.BroadcastBytes += sc.bBytes[p]
		ss.EdgesScanned += scanned[p]
		ss.MsgsEmitted += emitted[p]
		ss.ActiveEdges += visited[p]
	}
	ss.ComputePerPart = append([]float64(nil), sc.computePerPart...)

	// Phase 3: reduce. One partial aggregate per (partition, vertex)
	// ships to the master. Shard by global vertex ranges: LocalVerts
	// is sorted, so each shard binary-searches its subrange in every
	// partition; shards own disjoint ranges, so merging is race-free. A
	// partition that emitted nothing has no has-flag set and is skipped.
	rMsgs := sc.rMsgs
	rBytes := sc.rBytes
	clear(rMsgs)
	clear(rBytes)
	if err := par.Ranges(shards, nv, func(sh, lo, hi int) {
		gLo, gHi := int32(lo), int32(hi)
		var msgs, bytes int64
		for p := 0; p < numParts; p++ {
			if emitted[p] == 0 {
				continue
			}
			lv := pg.Parts[p].LocalVerts
			has := msgHas[p]
			acc := msgAcc[p]
			start := sort.Search(len(lv), func(i int) bool { return lv[i] >= gLo })
			for l := start; l < len(lv) && lv[l] < gHi; l++ {
				if !has[l] {
					continue
				}
				gidx := lv[l]
				m := acc[l]
				if masterHas[gidx] {
					masterMsg[gidx] = prog.MergeMsg(masterMsg[gidx], m)
				} else {
					masterMsg[gidx] = m
					masterHas[gidx] = true
				}
				msgs++
				bytes += int64(prog.MsgSize(m))
			}
		}
		rMsgs[sh], rBytes[sh] = msgs, bytes
	}); err != nil {
		return fmt.Errorf("pregel: superstep %d reduce: %w", step, err)
	}
	for sh := 0; sh < shards; sh++ {
		ss.ReduceMsgs += rMsgs[sh]
		ss.ReduceBytes += rBytes[sh]
	}

	// Clear per-partition accumulators for the next round, where anything
	// was emitted. (The frontier bitsets are rebuilt word-by-word each
	// compute phase and the edge bitmaps self-clear during the scan, so
	// neither needs a pass here.)
	if err := par.ForEach(context.Background(), shards, numParts, func(p int) {
		if emitted[p] != 0 {
			clear(msgHas[p])
		}
	}); err != nil {
		return fmt.Errorf("pregel: superstep %d: %w", step, err)
	}
	return nil
}

// pullMirrors is one partition's broadcast, run by the partition's own worker
// at the start of its compute: every mirror whose master changed last round —
// every mirror when fill is set — copies masterVals[lv[l]] into its slot
// vals[l] and counts as one broadcast message of Program.StateSize bytes,
// which is the paper's CommCost, per mirror. Ghosts are no mirror: they pull
// nothing and stay off the frontier. The same pass fills fw, when non-nil,
// with the partition's frontier (bit l ⇔ local vertex l's master changed,
// fill or not) and returns its popcount act, which decides the scan's
// density. The changed bits are gathered branch-free, one per mirror. Only
// this partition's slots and words are written, so partitions pull
// concurrently.
func pullMirrors[V, M any](prog *Program[V, M], part *Partition, vals, masterVals []V, changed []uint64, fill bool, fw []uint64) (act int, msgs, bytes int64) {
	lv, ghost := part.LocalVerts, part.ghost
	for base := 0; base < len(lv); base += 64 {
		end := min(base+64, len(lv))
		var w uint64
		for l := base; l < end; l++ {
			gi := lv[l]
			w |= (changed[gi>>6] >> (uint32(gi) & 63) & 1) << uint(l-base)
		}
		if ghost != nil {
			w &^= ghost[base>>6]
		}
		if fw != nil {
			fw[base>>6] = w
			act += bits.OnesCount64(w)
		}
		if fill {
			w = fullWord(base>>6, len(lv))
			if ghost != nil {
				w &^= ghost[base>>6]
			}
		}
		msgs += int64(bits.OnesCount64(w))
		for ; w != 0; w &= w - 1 {
			l := base + bits.TrailingZeros64(w)
			vals[l] = masterVals[lv[l]]
			if prog.StateBytes != nil {
				bytes += int64(prog.StateBytes(vals[l]))
			}
		}
	}
	if prog.StateBytes == nil {
		bytes = 8 * msgs // StateSize's constant, without a call per mirror
	}
	return act, msgs, bytes
}

// finishRun hands the final vertex values to the caller. With reuse the
// scratch (including masterVals) is parked for the next run, so the caller
// gets a private copy; otherwise the scratch-owned slice itself is returned
// and the scratch is dropped.
func finishRun[V, M any](pg *PartitionedGraph, sc *engineScratch[V, M], reuse bool) []V {
	if !reuse {
		return sc.masterVals
	}
	out := make([]V, len(sc.masterVals))
	copy(out, sc.masterVals)
	pg.scratch.put(scratchKey[V, M](), sc, pg.scratchDepth())
	return out
}

// partEmitter delivers messages into the partition-local accumulator.
type partEmitter[M any] struct {
	merge              func(a, b M) M
	acc                []M
	has                []bool
	srcLocal, dstLocal int32
	emitted            int64
}

// emitterSlot pads a partEmitter (72 bytes regardless of M: two slice
// headers, a func value, and the per-edge fields) out to 128 bytes so
// consecutive slots in engineScratch.emitters never share a cache line.
type emitterSlot[M any] struct {
	partEmitter[M]
	_ [56]byte
}

func (em *partEmitter[M]) deliver(l int32, m M) {
	em.emitted++
	if em.has[l] {
		em.acc[l] = em.merge(em.acc[l], m)
	} else {
		em.acc[l] = m
		em.has[l] = true
	}
}

// ToSrc sends a message to the triplet's source vertex.
func (em *partEmitter[M]) ToSrc(m M) { em.deliver(em.srcLocal, m) }

// ToDst sends a message to the triplet's destination vertex.
func (em *partEmitter[M]) ToDst(m M) { em.deliver(em.dstLocal, m) }
