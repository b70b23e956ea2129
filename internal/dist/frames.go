package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"cutfit/internal/pregel"
)

// Binary frame layouts (all integers little-endian, values fixed-width per
// the run's Codec):
//
//	BroadcastFrame ("CFDB"): u32 magic, u32 superstep, u32 partCount,
//	  then per partition: u32 part, u32 n, n × (u32 local, V bytes).
//	  Only partitions with at least one changed mirror appear.
//
//	ReduceFrame ("CFDR"): u32 magic, u32 superstep, u32 partCount,
//	  then per owned partition, ascending by index: u32 part, u32 n,
//	  i64 scanned, i64 visited, i64 emitted, f64 cost,
//	  n × (u32 local, M bytes). Every owned partition appears, message
//	  count zero or not, so compute stats always arrive.
//
// Within a partition the (local, value) pairs are ascending by local index;
// across partitions the reduce frame is ascending by partition index. The
// coordinator merges partitions in ascending order per destination vertex,
// reproducing the local reduce phase's merge order exactly.
const (
	magicBroadcast uint32 = 'C' | 'F'<<8 | 'D'<<16 | 'B'<<24
	magicReduce    uint32 = 'C' | 'F'<<8 | 'D'<<16 | 'R'<<24
)

// framePart is one partition's slab inside a broadcast or reduce frame.
type framePart struct {
	part  int
	n     int
	pairs []byte // n × (u32 local, value bytes)

	// Reduce-frame compute stats; zero in broadcast frames.
	scanned, visited, emitted int64
	cost                      float64
}

// frameReader is a bounds-checked cursor with a sticky error.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = fmt.Errorf("dist: frame truncated: need %d bytes, have %d", n, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *frameReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *frameReader) i64() int64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

func (r *frameReader) f64() float64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (r *frameReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dist: %d trailing bytes in frame", len(r.b)-r.off)
	}
	return nil
}

// Frame and section header widths: magic, superstep and part count; part
// and pair count.
const (
	frameHeaderSize = 12
	partHeaderSize  = 8
)

// putFrameHeader writes a frame's 12-byte header at the start of b.
func putFrameHeader(b []byte, magic uint32, step, partCount int) {
	binary.LittleEndian.PutUint32(b, magic)
	binary.LittleEndian.PutUint32(b[4:], uint32(step))
	binary.LittleEndian.PutUint32(b[8:], uint32(partCount))
}

// parseFrame validates a frame against the expected magic and the run's
// value width and returns the superstep plus the partition slabs.
func parseFrame(frame []byte, wantMagic uint32, valSize int, withStats bool) (int, []framePart, error) {
	r := &frameReader{b: frame}
	if m := r.u32(); r.err == nil && m != wantMagic {
		return 0, nil, fmt.Errorf("dist: frame magic %08x, want %08x", m, wantMagic)
	}
	step := int(r.u32())
	count := int(r.u32())
	if r.err != nil {
		return 0, nil, r.err
	}
	if count < 0 || count > (len(frame)+7)/8 {
		return 0, nil, fmt.Errorf("dist: frame part count %d exceeds frame size", count)
	}
	parts := make([]framePart, 0, count)
	pair := 4 + valSize
	for i := 0; i < count && r.err == nil; i++ {
		fp := framePart{
			part: int(r.u32()),
			n:    int(r.u32()),
		}
		if withStats {
			fp.scanned = r.i64()
			fp.visited = r.i64()
			fp.emitted = r.i64()
			fp.cost = r.f64()
		}
		if r.err == nil && (fp.n < 0 || fp.n > (len(frame)-r.off)/pair) {
			return 0, nil, fmt.Errorf("dist: frame partition %d claims %d pairs, frame too small", fp.part, fp.n)
		}
		fp.pairs = r.take(fp.n * pair)
		parts = append(parts, fp)
	}
	if err := r.finish(); err != nil {
		return 0, nil, err
	}
	return step, parts, nil
}

// reduceFrameBuilder assembles a worker's reduce frame in a buffer the run
// keeps between supersteps: reset, then per owned partition beginPart, the
// pair slab appended straight onto buf, endPart with the pair count.
type reduceFrameBuilder struct {
	buf  []byte
	nOff int // offset of the open partition's pair-count field
}

func (b *reduceFrameBuilder) reset(step, partCount int) {
	b.buf = append(b.buf[:0], make([]byte, frameHeaderSize)...)
	putFrameHeader(b.buf, magicReduce, step, partCount)
}

func (b *reduceFrameBuilder) beginPart(part int, cs pregel.ComputeStats) {
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(part))
	b.nOff = len(b.buf)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, 0) // n, backfilled by endPart
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(cs.Scanned))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(cs.Visited))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(cs.Emitted))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(cs.Cost))
}

func (b *reduceFrameBuilder) endPart(nPairs int) {
	binary.LittleEndian.PutUint32(b.buf[b.nOff:], uint32(nPairs))
}
