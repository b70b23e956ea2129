package snap

import (
	"encoding/binary"
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// Shard sections: meta, the owned-partition list, the partition tables of
// a topology (ids 3–7) for the owned partitions, then the vertex table and
// the out-degrees.
const (
	secShardOwned  = 2
	secShardVerts  = 8
	secShardOutDeg = 9
)

// ShardPayload is one worker's slice of a partitioned topology: the whole
// dense vertex table and out-degrees, and the tables of the partitions the
// worker owns — Tables' i-th partition is partition Owned[i], ascending by
// index. GraphFP names the graph generation the shard belongs to.
type ShardPayload struct {
	GraphFP  uint64
	NumParts int
	NumVerts int
	Verts    []graph.VertexID
	OutDeg   []int32
	Owned    []int32
	Tables   pregel.PartTables
}

// EncodeShard packs a shard payload into a container.
func EncodeShard(sp *ShardPayload) []byte {
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, sp.GraphFP)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(sp.NumParts))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(sp.NumVerts))

	b := NewBuilder(KindShard)
	b.Section(secMeta, meta)
	b.Section(secShardOwned, encodeI32s(sp.Owned))
	addPartTables(b, &sp.Tables)
	b.Section(secShardVerts, encodeVertexList(sp.Verts))
	b.Section(secShardOutDeg, encodeI32s(sp.OutDeg))
	return b.Bytes()
}

// DecodeShard unpacks a shard container, validating its structure: a
// partition count within the limit, a strictly ascending vertex table and
// an out-degree per vertex, and owned partitions ascending strictly within
// the partition count (CRCs are checked by the container layer; the
// partition tables are the consumer's to check, with
// pregel.PartTables.Partitions, as a topology restore does).
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
	if sp.NumParts <= 0 || sp.NumParts > maxNumParts || sp.NumVerts < 0 {
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

	osec, err := section(c, secShardOwned, "owned partitions")
	if err != nil {
		return nil, err
	}
	if sp.Owned, err = decodeI32s(osec, "owned partitions"); err != nil {
		return nil, err
	}
	for i, p := range sp.Owned {
		if p < 0 || int(p) >= sp.NumParts {
			return nil, fmt.Errorf("snap: shard partition index %d out of range [0,%d)", p, sp.NumParts)
		}
		if i > 0 && p <= sp.Owned[i-1] {
			return nil, fmt.Errorf("snap: shard partition index %d follows %d, want strictly ascending", p, sp.Owned[i-1])
		}
	}
	if sp.Tables, err = readPartTables(c); err != nil {
		return nil, err
	}
	return sp, nil
}
