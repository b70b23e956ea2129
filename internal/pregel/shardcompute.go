package pregel

import (
	"context"
	"encoding/binary"
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/par"
)

// ComputeStats is one partition's compute-phase counters, reported by
// ShardCompute.Section so the distributed reduce frame can carry them back
// to the coordinator's SuperstepStats.
type ComputeStats struct {
	Scanned int64   // edges whose SendMsg actually ran
	Visited int64   // edges examined (dense: all live; sparse: live candidates)
	Emitted int64   // messages emitted before local combining
	Cost    float64 // summed EdgeCost of scanned triplets
}

// Codec fixes the wire form of one vertex-state or message type: a fixed
// byte width, an appender and a decoder. Values are little-endian and
// bit-exact (float64 travels as its IEEE-754 bits), so a value decoded on
// the far side is the identical bit pattern — the precondition for
// bit-identical distributed runs.
type Codec[T any] interface {
	Size() int
	Append(dst []byte, v T) []byte
	Decode(p []byte) T
}

// ShardTopology is the immutable half of one worker's shard: the partitions
// it owns and the set of vertices mirrored in them. Built once when a shard
// is installed and shared by every run on it.
type ShardTopology struct {
	verts []graph.VertexID
	parts []*Partition // by partition index; nil where another worker owns it
	owned []int        // ascending

	// mirrored has bit v set when global vertex v has a mirror in an owned
	// partition: the vertices a broadcast frame may name.
	mirrored []uint64
}

// NewShardTopology indexes a worker's owned partitions. verts is the full
// graph's dense vertex-ID table (local and distributed runs share it via the
// shard snapshot); parts is indexed by partition, nil where not owned.
func NewShardTopology(verts []graph.VertexID, parts []*Partition) *ShardTopology {
	st := &ShardTopology{verts: verts, parts: parts, mirrored: make([]uint64, (len(verts)+63)/64)}
	for p, part := range parts {
		if part == nil {
			continue
		}
		st.owned = append(st.owned, p)
		for _, g := range part.LocalVerts {
			st.mirrored[g>>6] |= 1 << (uint32(g) & 63)
		}
	}
	return st
}

// Owned returns the owned partition indices, ascending. Callers must not
// modify the returned slice.
func (st *ShardTopology) Owned() []int { return st.owned }

// shardPart is one owned partition's compute state. The slices are views of
// the run's flat buffers (see NewShardCompute).
type shardPart[V, M any] struct {
	part *Partition
	vals []V
	fw   []uint64 // frontier bitset, derived per superstep; nil for AllEdges programs
	mask []uint64 // sparse-scan edge bitmap; nil for AllEdges programs
	em   partEmitter[M]

	// Results of the last Scan: the compute counters and the combined
	// messages as a pair slab of n pairs.
	stats ComputeStats
	slab  []byte
	n     int
}

// ShardCompute runs the mirror half of a superstep for one worker's owned
// partitions — the local engine's phases 1 and 2 restricted to them: install
// the changed master values by vertex, then per partition pull them into the
// mirror slots and derive the frontier with the engine's pullMirrors, and
// scan with its computePart (so edge order — and therefore float64 combine
// order — is byte-identical to the local path), partitions in parallel on as
// many goroutines as the process can run. Values enter as one vertex frame
// body, n × (u32 little-endian global dense index, value bytes per the Codec)
// ascending by index; messages leave as one pair slab per partition, n × (u32
// local index, message bytes) ascending by local index — the byte layouts of
// internal/dist's frames, so nothing is called per pair between the wire and
// the scan but the Codec.
type ShardCompute[V, M any] struct {
	prog    Program[V, M]
	topo    *ShardTopology
	vc      Codec[V]
	mc      Codec[M]
	parts   []shardPart[V, M] // by partition index; part == nil where not owned
	master  []V               // master values by global vertex, as the frames left them
	changed []uint64          // vertices the last frame named
	workers int
	scan    func(i int) // scanOwned, bound once so a superstep does not allocate it
}

// NewShardCompute prepares one run's compute state on the shard. prog is the
// same program the coordinator's engine runs; vc and mc are the wire forms of
// its values and messages. As in the engine's scratch, every per-mirror and
// per-edge array is one flat buffer with the partitions' slices carved out of
// it — mirror values, combine accumulators, a reduce slab wide enough for a
// message to every mirror and, for a frontier-driven program, the frontier
// and edge bitsets — so a run allocates per buffer, not per partition, and a
// superstep allocates none of them. The master values and the changed bitset
// are one slot and one bit per vertex of the graph.
func NewShardCompute[V, M any](prog Program[V, M], topo *ShardTopology, vc Codec[V], mc Codec[M]) (*ShardCompute[V, M], error) {
	if err := prog.validate(); err != nil {
		return nil, err
	}
	frontiers := prog.ActiveDirection != AllEdges
	nv := len(topo.verts)
	sc := &ShardCompute[V, M]{
		prog:    prog,
		topo:    topo,
		vc:      vc,
		mc:      mc,
		parts:   make([]shardPart[V, M], len(topo.parts)),
		master:  make([]V, nv),
		changed: make([]uint64, (nv+63)/64),
		workers: par.DefaultParallelism(),
	}
	sc.scan = sc.scanOwned
	mirrors, frontWords, maskWords := 0, 0, 0
	for _, p := range topo.owned {
		part := topo.parts[p]
		mirrors += len(part.LocalVerts)
		frontWords += (len(part.LocalVerts) + 63) / 64
		maskWords += (len(part.edges) + 63) / 64
	}
	pairSize := 4 + mc.Size()
	vals, acc, has := make([]V, mirrors), make([]M, mirrors), make([]bool, mirrors)
	slabs := make([]byte, mirrors*pairSize)
	var bitsets []uint64
	if frontiers {
		bitsets = make([]uint64, frontWords+maskWords)
	}
	at, bAt := 0, 0
	for _, p := range topo.owned {
		part := topo.parts[p]
		n := len(part.LocalVerts)
		sp := &sc.parts[p]
		sp.part = part
		sp.vals = vals[at : at+n : at+n]
		sp.em = partEmitter[M]{
			merge: prog.MergeMsg,
			acc:   acc[at : at+n : at+n],
			has:   has[at : at+n : at+n],
		}
		sp.slab = slabs[at*pairSize : at*pairSize : (at+n)*pairSize]
		at += n
		if frontiers {
			fw, mw := (n+63)/64, (len(part.edges)+63)/64
			sp.fw = bitsets[bAt : bAt+fw : bAt+fw]
			sp.mask = bitsets[bAt+fw : bAt+fw+mw : bAt+fw+mw]
			bAt += fw + mw
		}
	}
	return sc, nil
}

// Ingest installs one superstep's changed master values from a vertex frame
// body: each named vertex's value into the run's master table and its bit
// into the changed set, which the next Scan pulls into the mirror slots. The
// whole body is checked before anything is written — whole pairs only, every
// index inside the vertex table, strictly ascending (so no vertex is named
// twice) and mirrored in at least one owned partition — so a rejected frame
// leaves the run as it was; so does a ctx already done, whose error Ingest
// returns. Master values persist between supersteps (only changed masters
// are re-sent), matching the engine's scratch semantics.
func (sc *ShardCompute[V, M]) Ingest(ctx context.Context, pairs []byte) error {
	vc := sc.vc
	pairSize := 4 + vc.Size()
	if len(pairs)%pairSize != 0 {
		return fmt.Errorf("pregel: shard compute: vertex frame body of %d bytes is not a multiple of the %d-byte pair", len(pairs), pairSize)
	}
	mirrored := sc.topo.mirrored
	nv := len(sc.topo.verts)
	prev := int64(-1)
	for off := 0; off < len(pairs); off += pairSize {
		g := int64(binary.LittleEndian.Uint32(pairs[off:]))
		switch {
		case g >= int64(nv):
			return fmt.Errorf("pregel: shard compute: vertex index %d out of range [0,%d)", g, nv)
		case g <= prev:
			return fmt.Errorf("pregel: shard compute: vertex index %d after %d, want strictly ascending", g, prev)
		case mirrored[g>>6]>>(g&63)&1 == 0:
			return fmt.Errorf("pregel: shard compute: vertex %d has no mirror in a partition owned here", g)
		}
		prev = g
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	clear(sc.changed)
	for off := 0; off < len(pairs); off += pairSize {
		g := binary.LittleEndian.Uint32(pairs[off:])
		sc.changed[g>>6] |= 1 << (g & 63)
		sc.master[g] = vc.Decode(pairs[off+4 : off+pairSize])
	}
	return nil
}

// Scan runs the compute phase over every owned partition, in parallel: pull
// the changed master values of the last Ingest into the partition's mirror
// slots and derive its frontier exactly as the local engine does, scan it
// with the engine's shared triplet scan, and encode its combined messages —
// ascending by local index, the order the reduce frame must preserve so the
// coordinator's per-destination merges match the local engine's — into the
// partition's slab. Once ctx is done no further partition is started and
// Scan returns ctx's error; a panic in the program comes back as an error.
func (sc *ShardCompute[V, M]) Scan(ctx context.Context) error {
	return par.ForEach(ctx, sc.workers, len(sc.topo.owned), sc.scan)
}

// scanOwned is Scan's share for the i-th owned partition.
func (sc *ShardCompute[V, M]) scanOwned(i int) {
	sp := &sc.parts[sc.topo.owned[i]]
	act, _, _ := pullMirrors(&sc.prog, sp.part, sp.vals, sc.master, sc.changed, false, sp.fw)
	em := &sp.em
	clear(em.has)
	em.emitted = 0
	nScan, nVisited, cost := computePart(&sc.prog, sp.part, sc.topo.verts, sp.vals, sp.fw, act, sp.mask, em)
	sp.stats = ComputeStats{Scanned: nScan, Visited: nVisited, Emitted: em.emitted, Cost: cost}

	slab, n := sp.slab[:0], 0
	for l, ok := range em.has {
		if ok {
			slab = sc.mc.Append(binary.LittleEndian.AppendUint32(slab, uint32(l)), em.acc[l])
			n++
		}
	}
	sp.slab, sp.n = slab, n
}

// Section returns what the last Scan left for owned partition p: its compute
// counters and its combined messages as a slab of n pairs. The slab is the
// run's storage, overwritten by the next Scan.
func (sc *ShardCompute[V, M]) Section(p int) (cs ComputeStats, slab []byte, n int) {
	sp := &sc.parts[p]
	return sp.stats, sp.slab, sp.n
}
