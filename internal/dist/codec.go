package dist

import (
	"encoding/binary"
	"math"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
)

// The wire forms of the served algorithms' vertex states and messages, as
// pregel.Codec implementations.

// f64Codec carries float64 ranks and messages.
type f64Codec struct{}

func (f64Codec) Size() int { return 8 }
func (f64Codec) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
func (f64Codec) Decode(p []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// vidCodec carries graph.VertexID component labels.
type vidCodec struct{}

func (vidCodec) Size() int { return 8 }
func (vidCodec) Append(dst []byte, v graph.VertexID) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}
func (vidCodec) Decode(p []byte) graph.VertexID {
	return graph.VertexID(binary.LittleEndian.Uint64(p))
}

// prStateCodec carries dynamic PageRank's (rank, delta) vertex state.
type prStateCodec struct{}

func (prStateCodec) Size() int { return 16 }
func (prStateCodec) Append(dst []byte, v algorithms.PRState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Rank))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Delta))
}
func (prStateCodec) Decode(p []byte) algorithms.PRState {
	return algorithms.PRState{
		Rank:  math.Float64frombits(binary.LittleEndian.Uint64(p)),
		Delta: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
	}
}
