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
//	BroadcastFrame ("CFDV"): u32 magic, u32 superstep, u32 n, then
//	  n × (u32 global dense vertex index, V bytes), strictly ascending by
//	  index: the changed vertices that have at least one mirror in a
//	  partition the receiving worker owns, each once however many mirrors
//	  it has there. The worker records the values by vertex; each owned
//	  partition pulls the ones it mirrors into its slots before its scan.
//
//	ReduceFrame ("CFDR"): u32 magic, u32 superstep, u32 partCount,
//	  then per owned partition, ascending by index: u32 part, u32 n,
//	  i64 scanned, i64 visited, i64 emitted, f64 cost,
//	  n × (u32 local, M bytes). Every owned partition appears, message
//	  count zero or not, so compute stats always arrive.
//
// Within a reduce section the (local, message) pairs are strictly ascending
// by local index; across sections the frame is ascending by partition index.
// The coordinator merges partitions in ascending order per destination
// vertex, reproducing the local reduce phase's merge order exactly.
//
// "CFDB" was the broadcast magic while the frame carried one pair per mirror,
// grouped by partition; a worker answers it, like any unknown magic, with 400.
const (
	magicBroadcast uint32 = 'C' | 'F'<<8 | 'D'<<16 | 'V'<<24
	magicReduce    uint32 = 'C' | 'F'<<8 | 'D'<<16 | 'R'<<24
)

// reduceSection is one partition's section of a reduce frame: its compute
// stats and its n combined messages as a pair slab.
type reduceSection struct {
	seen  bool // filed this superstep
	part  int
	n     int
	pairs []byte // n × (u32 local, M bytes)

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

// frameHeaderSize is the width of both frames' header: magic, superstep and
// pair (broadcast) or section (reduce) count.
const frameHeaderSize = 12

// putFrameHeader writes a frame's 12-byte header at the start of b.
func putFrameHeader(b []byte, magic uint32, step, count int) {
	binary.LittleEndian.PutUint32(b, magic)
	binary.LittleEndian.PutUint32(b[4:], uint32(step))
	binary.LittleEndian.PutUint32(b[8:], uint32(count))
}

// frameHeader reads and checks a frame's header and returns the superstep
// and the count field.
func frameHeader(r *frameReader, wantMagic uint32) (step, count int, err error) {
	if m := r.u32(); r.err == nil && m != wantMagic {
		return 0, 0, fmt.Errorf("dist: frame magic %08x, want %08x", m, wantMagic)
	}
	step, count = int(r.u32()), int(r.u32())
	return step, count, r.err
}

// parseBroadcastFrame checks a broadcast frame's envelope against the run's
// value width — magic, a pair count that is exactly what the body holds — and
// returns the superstep and the body. What the pairs say is for
// ShardCompute.Ingest to check against the shard.
func parseBroadcastFrame(frame []byte, valSize int) (step int, pairs []byte, err error) {
	r := &frameReader{b: frame}
	step, n, err := frameHeader(r, magicBroadcast)
	if err != nil {
		return 0, nil, err
	}
	pairs = frame[r.off:]
	if pair := 4 + valSize; len(pairs)%pair != 0 || n != len(pairs)/pair {
		return 0, nil, fmt.Errorf("dist: broadcast frame claims %d pairs of %d bytes, body holds %d bytes", n, pair, len(pairs))
	}
	return step, pairs, nil
}

// parseReduceFrame validates worker w's reduce frame against the topology —
// every section a partition w owns (of W workers), none twice, every pair's
// local index inside the partition's vertex table and strictly ascending, so
// the merge may binary-search the slab — and files each section under its
// partition in sections. Workers own disjoint partitions, so their frames may
// be parsed into one table concurrently. It returns the superstep.
func parseReduceFrame(frame []byte, msgSize int, pg *pregel.PartitionedGraph, w, W int, sections []reduceSection) (int, error) {
	r := &frameReader{b: frame}
	step, count, err := frameHeader(r, magicReduce)
	if err != nil {
		return 0, err
	}
	pair := 4 + msgSize
	for i := 0; i < count; i++ {
		sec := reduceSection{
			seen:    true,
			part:    int(r.u32()),
			n:       int(r.u32()),
			scanned: r.i64(),
			visited: r.i64(),
			emitted: r.i64(),
			cost:    r.f64(),
		}
		if r.err != nil {
			return 0, r.err
		}
		if sec.part < 0 || sec.part >= pg.NumParts || workerOf(sec.part, W) != w {
			return 0, fmt.Errorf("dist: reduce frame reports partition %d, which worker %d does not own", sec.part, w)
		}
		if sections[sec.part].seen {
			return 0, fmt.Errorf("dist: partition %d reported twice", sec.part)
		}
		if sec.n < 0 || sec.n > (len(frame)-r.off)/pair {
			return 0, fmt.Errorf("dist: reduce frame partition %d claims %d pairs, frame too small", sec.part, sec.n)
		}
		sec.pairs = r.take(sec.n * pair)
		nLocal, prev := int64(pg.Parts[sec.part].NumLocalVertices()), int64(-1)
		for off := 0; off < len(sec.pairs); off += pair {
			local := int64(binary.LittleEndian.Uint32(sec.pairs[off:]))
			if local <= prev || local >= nLocal {
				return 0, fmt.Errorf("dist: partition %d reduce pair local %d after %d, want strictly ascending in [0,%d)", sec.part, local, prev, nLocal)
			}
			prev = local
		}
		sections[sec.part] = sec
	}
	return step, r.finish()
}

// reduceFrameBuilder assembles a worker's reduce frame in a buffer the run
// keeps between supersteps: reset, then one appendSection per owned
// partition, ascending.
type reduceFrameBuilder struct {
	buf []byte
}

func (b *reduceFrameBuilder) reset(step, partCount int) {
	b.buf = append(b.buf[:0], make([]byte, frameHeaderSize)...)
	putFrameHeader(b.buf, magicReduce, step, partCount)
}

func (b *reduceFrameBuilder) appendSection(part int, cs pregel.ComputeStats, pairs []byte, n int) {
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(part))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(n))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(cs.Scanned))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(cs.Visited))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(cs.Emitted))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(cs.Cost))
	b.buf = append(b.buf, pairs...)
}
