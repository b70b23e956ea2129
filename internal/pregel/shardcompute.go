package pregel

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"cutfit/internal/graph"
)

// NewPartition builds a standalone Partition from local-index tables — the
// distributed worker's entry point for reconstructing its shard from a wire
// snapshot. localVerts must be strictly ascending global dense indices and
// every edge endpoint must index into it; the frontier index is built lazily
// on first sparse scan, exactly as for coordinator-built partitions.
func NewPartition(nv int, localVerts, edgeSrc, edgeDst []int32) (*Partition, error) {
	if len(edgeSrc) != len(edgeDst) {
		return nil, fmt.Errorf("pregel: NewPartition: %d edge sources vs %d destinations", len(edgeSrc), len(edgeDst))
	}
	for i, g := range localVerts {
		if g < 0 || int(g) >= nv {
			return nil, fmt.Errorf("pregel: NewPartition: local vertex %d maps to global %d, graph has %d", i, g, nv)
		}
		if i > 0 && localVerts[i-1] >= g {
			return nil, fmt.Errorf("pregel: NewPartition: LocalVerts not strictly ascending at %d", i)
		}
	}
	n := int32(len(localVerts))
	edges := make([]localEdge, len(edgeSrc))
	for j := range edgeSrc {
		s, d := edgeSrc[j], edgeDst[j]
		if s < 0 || s >= n || d < 0 || d >= n {
			return nil, fmt.Errorf("pregel: NewPartition: edge %d endpoints (%d,%d) out of range [0,%d)", j, s, d, n)
		}
		edges[j] = localEdge{src: s, dst: d}
	}
	return &Partition{LocalVerts: localVerts, edges: edges}, nil
}

// ComputeStats is one partition's compute-phase counters, reported by
// ShardCompute.Compute so the distributed reduce frame can carry them back
// to the coordinator's SuperstepStats.
type ComputeStats struct {
	Scanned int64   // edges whose SendMsg actually ran
	Visited int64   // edges examined (dense: all; sparse: candidate set)
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

// shardPart is one owned partition's compute state.
type shardPart[V, M any] struct {
	part *Partition
	vals []V
	fw   []uint64 // mirror frontier bitset, rebuilt per superstep
	act  int      // frontier popcount
	fed  bool     // a slab arrived this superstep
	mask []uint64 // sparse-scan edge bitmap, reused
	em   partEmitter[M]
}

// ShardCompute runs the mirror half of a superstep for one worker's owned
// partitions: accept broadcast mirror values, execute the compute scan via
// the engine's computePart (so edge order — and therefore float64 combine
// order — is byte-identical to the local path), and hand back the locally
// combined per-vertex messages for the reduce frame. Mirror values enter and
// messages leave as pair slabs, n × (u32 little-endian local index, value
// bytes per the Codec) ascending by local index — the partition section of
// internal/dist's frames — so nothing is called per pair between the wire
// and the scan but the Codec.
type ShardCompute[V, M any] struct {
	prog  Program[V, M]
	verts []graph.VertexID
	parts []shardPart[V, M] // by partition index; part == nil where not owned
}

// NewShardCompute prepares the compute state for the owned partitions: parts
// is indexed by partition, nil where another worker owns it. verts is the
// full graph's dense vertex-ID table (local and distributed runs share it via
// the shard snapshot), prog the same program the coordinator's engine runs.
func NewShardCompute[V, M any](prog Program[V, M], verts []graph.VertexID, parts []*Partition) (*ShardCompute[V, M], error) {
	if err := prog.validate(); err != nil {
		return nil, err
	}
	sc := &ShardCompute[V, M]{
		prog:  prog,
		verts: verts,
		parts: make([]shardPart[V, M], len(parts)),
	}
	for p, part := range parts {
		if part == nil {
			continue
		}
		n := len(part.LocalVerts)
		sc.parts[p] = shardPart[V, M]{
			part: part,
			vals: make([]V, n),
			fw:   make([]uint64, (n+63)/64),
			em: partEmitter[M]{
				merge: prog.MergeMsg,
				acc:   make([]M, n),
				has:   make([]bool, n),
			},
		}
	}
	return sc, nil
}

// owned returns partition p's state, or an error when p is not owned here.
func (sc *ShardCompute[V, M]) owned(p int) (*shardPart[V, M], error) {
	if p < 0 || p >= len(sc.parts) || sc.parts[p].part == nil {
		return nil, fmt.Errorf("pregel: shard compute: partition %d not owned here", p)
	}
	return &sc.parts[p], nil
}

// BeginSuperstep resets the per-round frontier and message state. Mirror
// values persist between rounds (only changed masters are re-broadcast),
// matching the engine's scratch semantics.
func (sc *ShardCompute[V, M]) BeginSuperstep() {
	for p := range sc.parts {
		sp := &sc.parts[p]
		clear(sp.fw)
		sp.act = 0
		sp.fed = false
		clear(sp.em.has)
		sp.em.emitted = 0
	}
}

// SetMirrors installs one broadcast slab — the changed masters mirrored in
// partition p — marking each slot frontier-active for this round's scan. A
// slab that is not a whole number of pairs, that names a local index outside
// the partition, or that is the partition's second this superstep, is
// rejected.
func (sc *ShardCompute[V, M]) SetMirrors(p int, pairs []byte, vc Codec[V]) error {
	sp, err := sc.owned(p)
	if err != nil {
		return err
	}
	if sp.fed {
		return fmt.Errorf("pregel: shard compute: partition %d sent twice in one superstep", p)
	}
	sp.fed = true
	pairSize := 4 + vc.Size()
	if len(pairs)%pairSize != 0 {
		return fmt.Errorf("pregel: shard compute: partition %d slab of %d bytes is not a multiple of the %d-byte pair", p, len(pairs), pairSize)
	}
	vals, fw := sp.vals, sp.fw
	// Pairs arrive ascending, so the frontier word under construction stays
	// in w until the slab moves on to the next one; folding it in with the
	// bits already set keeps the popcount exact for any order.
	wi, w, act := 0, uint64(0), sp.act
	for ; len(pairs) >= pairSize; pairs = pairs[pairSize:] {
		local := binary.LittleEndian.Uint32(pairs)
		if uint64(local) >= uint64(len(vals)) {
			return fmt.Errorf("pregel: shard compute: partition %d local index %d out of range [0,%d)", p, local, len(vals))
		}
		vals[local] = vc.Decode(pairs[4:pairSize])
		if int(local>>6) != wi {
			act += bits.OnesCount64(w &^ fw[wi])
			fw[wi] |= w
			wi, w = int(local>>6), 0
		}
		w |= 1 << (local & 63)
	}
	if w != 0 {
		act += bits.OnesCount64(w &^ fw[wi])
		fw[wi] |= w
	}
	sp.act = act
	return nil
}

// Compute scans partition p with the engine's shared triplet scan and
// combines messages into the partition-local accumulator.
func (sc *ShardCompute[V, M]) Compute(p int) (ComputeStats, error) {
	sp, err := sc.owned(p)
	if err != nil {
		return ComputeStats{}, err
	}
	nScan, nVisited, cost, mask := computePart(&sc.prog, sp.part, sc.verts, sp.vals, sp.fw, sp.act, sp.mask, &sp.em)
	sp.mask = mask
	return ComputeStats{Scanned: nScan, Visited: nVisited, Emitted: sp.em.emitted, Cost: cost}, nil
}

// AppendMessages appends the combined messages of partition p — one Compute
// has just scanned — to dst as a pair slab and returns the extended buffer
// and the pair count. Pairs are in ascending local order — the order the
// reduce frame must preserve so the coordinator's per-destination merges
// match the local engine's.
func (sc *ShardCompute[V, M]) AppendMessages(p int, dst []byte, mc Codec[M]) ([]byte, int) {
	em := &sc.parts[p].em
	n := 0
	for l, ok := range em.has {
		if ok {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(l))
			dst = mc.Append(dst, em.acc[l])
			n++
		}
	}
	return dst, n
}
