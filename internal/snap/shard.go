package snap

import (
	"encoding/binary"
	"fmt"

	"cutfit/internal/graph"
)

// Shard sections. The parts section packs a variable number of partition
// tables, so it carries its own per-partition framing inside one section.
const (
	secShardVerts  = 2
	secShardOutDeg = 3
	secShardParts  = 4
)

// ShardPart is one owned partition's tables inside a shard payload: the
// local→global vertex map and the edge endpoint columns, in partition edge
// order (which the compute scan preserves).
type ShardPart struct {
	Index      int
	LocalVerts []int32
	EdgeSrc    []int32
	EdgeDst    []int32
}

// ShardPayload is one worker's slice of a partitioned topology: the whole
// dense vertex table and out-degrees, and the tables of the partitions the
// worker owns, ascending by index. GraphFP names the graph generation the
// shard belongs to.
type ShardPayload struct {
	GraphFP  uint64
	NumParts int
	NumVerts int
	Verts    []graph.VertexID
	OutDeg   []int32
	Parts    []ShardPart
}

// EncodeShard packs a shard payload into a container.
func EncodeShard(sp *ShardPayload) []byte {
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, sp.GraphFP)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(sp.NumParts))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(sp.NumVerts))

	var parts []byte
	parts = binary.LittleEndian.AppendUint32(parts, uint32(len(sp.Parts)))
	for i := range sp.Parts {
		p := &sp.Parts[i]
		parts = binary.LittleEndian.AppendUint32(parts, uint32(p.Index))
		parts = appendBlob(parts, encodeI32s(p.LocalVerts))
		parts = appendBlob(parts, encodeI32s(p.EdgeSrc))
		parts = appendBlob(parts, encodeI32s(p.EdgeDst))
	}

	b := NewBuilder(KindShard)
	b.Section(secMeta, meta)
	b.Section(secShardVerts, encodeVertexList(sp.Verts))
	b.Section(secShardOutDeg, encodeI32s(sp.OutDeg))
	b.Section(secShardParts, parts)
	return b.Bytes()
}

// DecodeShard unpacks a shard container, validating structure: a strictly
// ascending vertex table and strictly ascending partition indices (CRCs are
// checked by the container layer; topology validation — ascending local
// vertex tables, in-range endpoints — is the consumer's job via
// pregel.NewPartition).
func DecodeShard(data []byte) (*ShardPayload, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := expectKind(c, KindShard); err != nil {
		return nil, err
	}

	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	sp := &ShardPayload{
		GraphFP:  mr.u64(),
		NumParts: int(mr.u64()),
		NumVerts: int(mr.u64()),
	}
	if err := mr.finish(); err != nil {
		return nil, err
	}
	if sp.NumParts <= 0 || sp.NumVerts < 0 {
		return nil, fmt.Errorf("snap: shard meta out of range: parts=%d verts=%d", sp.NumParts, sp.NumVerts)
	}

	vsec, err := section(c, secShardVerts, "vertex list")
	if err != nil {
		return nil, err
	}
	sp.Verts, err = decodeVertexList(vsec, uint64(sp.NumVerts))
	if err != nil {
		return nil, err
	}

	dsec, err := section(c, secShardOutDeg, "out-degree")
	if err != nil {
		return nil, err
	}
	sp.OutDeg, err = decodeI32s(dsec, "out-degree")
	if err != nil {
		return nil, err
	}
	if len(sp.OutDeg) != sp.NumVerts {
		return nil, fmt.Errorf("snap: shard out-degree table holds %d entries, meta says %d", len(sp.OutDeg), sp.NumVerts)
	}

	psec, err := section(c, secShardParts, "partitions")
	if err != nil {
		return nil, err
	}
	pr := &fieldReader{b: psec}
	n := int(pr.u32())
	if pr.err == nil && n > sp.NumParts {
		return nil, fmt.Errorf("snap: shard carries %d partitions, topology has %d", n, sp.NumParts)
	}
	for i := 0; i < n && pr.err == nil; i++ {
		p := ShardPart{Index: int(pr.u32())}
		lvb := pr.blob()
		srcb := pr.blob()
		dstb := pr.blob()
		if pr.err != nil {
			break
		}
		if p.Index < 0 || p.Index >= sp.NumParts {
			return nil, fmt.Errorf("snap: shard partition index %d out of range [0,%d)", p.Index, sp.NumParts)
		}
		if i > 0 && p.Index <= sp.Parts[i-1].Index {
			return nil, fmt.Errorf("snap: shard partition index %d follows %d, want strictly ascending", p.Index, sp.Parts[i-1].Index)
		}
		if p.LocalVerts, err = decodeI32s(lvb, "local verts"); err != nil {
			return nil, err
		}
		if p.EdgeSrc, err = decodeI32s(srcb, "edge sources"); err != nil {
			return nil, err
		}
		if p.EdgeDst, err = decodeI32s(dstb, "edge destinations"); err != nil {
			return nil, err
		}
		if len(p.EdgeSrc) != len(p.EdgeDst) {
			return nil, fmt.Errorf("snap: shard partition %d: %d edge sources vs %d destinations", p.Index, len(p.EdgeSrc), len(p.EdgeDst))
		}
		sp.Parts = append(sp.Parts, p)
	}
	if err := pr.finish(); err != nil {
		return nil, err
	}
	return sp, nil
}
