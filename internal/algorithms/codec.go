package algorithms

import (
	"encoding/binary"
	"math"

	"cutfit/internal/graph"
)

// The wire forms of the cluster-run programs' vertex states and messages, as
// pregel.Codec implementations; the table's Vertex entries name them.

// F64Codec carries float64 ranks and messages.
type F64Codec struct{}

func (F64Codec) Size() int { return 8 }
func (F64Codec) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
func (F64Codec) Decode(p []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// VertexIDCodec carries graph.VertexID component labels.
type VertexIDCodec struct{}

func (VertexIDCodec) Size() int { return 8 }
func (VertexIDCodec) Append(dst []byte, v graph.VertexID) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}
func (VertexIDCodec) Decode(p []byte) graph.VertexID {
	return graph.VertexID(binary.LittleEndian.Uint64(p))
}

// PRStateCodec carries dynamic PageRank's (rank, delta) vertex state.
type PRStateCodec struct{}

func (PRStateCodec) Size() int { return 16 }
func (PRStateCodec) Append(dst []byte, v PRState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Rank))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Delta))
}
func (PRStateCodec) Decode(p []byte) PRState {
	return PRState{
		Rank:  math.Float64frombits(binary.LittleEndian.Uint64(p)),
		Delta: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
	}
}
