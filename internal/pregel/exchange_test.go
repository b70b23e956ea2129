package pregel

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"cutfit/internal/partition"
)

// slabRef is the per-partition slab ingest the vertex frame replaced, kept
// as the oracle for ShardCompute.Ingest and Scan: broadcast values arrive one
// slab per partition, n × (u32 local index, value bytes), and mark the
// partition's frontier as they land; compute then scans with that frontier.
// It drives a ShardCompute's mirror values and emitters but keeps its own
// frontier state, so nothing of the production path's bitset derivation is
// involved.
type slabRef[V, M any] struct {
	sc  *ShardCompute[V, M]
	fw  [][]uint64 // frontier bitset per partition, rebuilt per superstep
	act []int      // frontier popcounts
	fed []bool     // a slab arrived this superstep
}

func newSlabRef[V, M any](t *testing.T, prog Program[V, M], topo *ShardTopology, vc Codec[V], mc Codec[M]) *slabRef[V, M] {
	t.Helper()
	sc, err := NewShardCompute(prog, topo, vc, mc)
	if err != nil {
		t.Fatal(err)
	}
	ref := &slabRef[V, M]{
		sc:  sc,
		fw:  make([][]uint64, len(topo.parts)),
		act: make([]int, len(topo.parts)),
		fed: make([]bool, len(topo.parts)),
	}
	for _, p := range topo.owned {
		ref.fw[p] = make([]uint64, (len(topo.parts[p].LocalVerts)+63)/64)
	}
	return ref
}

// beginSuperstep resets the per-round frontier state.
func (ref *slabRef[V, M]) beginSuperstep() {
	for p := range ref.fw {
		clear(ref.fw[p])
		ref.act[p] = 0
		ref.fed[p] = false
	}
}

// setMirrorsRef installs one broadcast slab — the changed masters mirrored in
// partition p — marking each slot frontier-active for this round's scan. A
// slab for a partition not owned here, that is not a whole number of pairs,
// that names a local index outside the partition, or that is the partition's
// second this superstep, is rejected.
func (ref *slabRef[V, M]) setMirrorsRef(p int, pairs []byte) error {
	vc := ref.sc.vc
	if p < 0 || p >= len(ref.sc.parts) || ref.sc.parts[p].part == nil {
		return fmt.Errorf("pregel: shard compute: partition %d not owned here", p)
	}
	if ref.fed[p] {
		return fmt.Errorf("pregel: shard compute: partition %d sent twice in one superstep", p)
	}
	ref.fed[p] = true
	pairSize := 4 + vc.Size()
	if len(pairs)%pairSize != 0 {
		return fmt.Errorf("pregel: shard compute: partition %d slab of %d bytes is not a multiple of the %d-byte pair", p, len(pairs), pairSize)
	}
	vals, fw := ref.sc.parts[p].vals, ref.fw[p]
	// Pairs arrive ascending, so the frontier word under construction stays
	// in w until the slab moves on to the next one; folding it in with the
	// bits already set keeps the popcount exact for any order.
	wi, w, act := 0, uint64(0), ref.act[p]
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
	ref.act[p] = act
	return nil
}

// computeRef scans partition p with the frontier its slab left and returns
// the counters and the combined messages as a pair slab, ascending by local
// index.
func (ref *slabRef[V, M]) computeRef(p int) (ComputeStats, []byte, int) {
	mc := ref.sc.mc
	sp := &ref.sc.parts[p]
	em := &sp.em
	clear(em.has)
	em.emitted = 0
	nScan, nVisited, cost := computePart(&ref.sc.prog, sp.part, ref.sc.topo.verts, sp.vals, ref.fw[p], ref.act[p], sp.mask, em)
	var slab []byte
	n := 0
	for l, ok := range em.has {
		if ok {
			slab = mc.Append(binary.LittleEndian.AppendUint32(slab, uint32(l)), em.acc[l])
			n++
		}
	}
	return ComputeStats{Scanned: nScan, Visited: nVisited, Emitted: em.emitted, Cost: cost}, slab, n
}

// f64Wire is the test-side float64 Codec, bit-exact.
type f64Wire struct{}

func (f64Wire) Size() int { return 8 }
func (f64Wire) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
func (f64Wire) Decode(p []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// shardTopologies splits pg over W workers the way internal/dist places
// partitions (p mod W) and returns each worker's ShardTopology.
func shardTopologies(pg *PartitionedGraph, W int) []*ShardTopology {
	topos := make([]*ShardTopology, W)
	for w := range topos {
		parts := make([]*Partition, pg.NumParts)
		for p := w; p < pg.NumParts; p += W {
			parts[p] = pg.Parts[p]
		}
		topos[w] = NewShardTopology(pg.G.Vertices(), parts)
	}
	return topos
}

// vertexFrame encodes the body of worker topo's broadcast frame: every
// changed vertex with a mirror there, ascending, each once.
func vertexFrame[V any](topo *ShardTopology, changed []uint64, masterVals []V, vc Codec[V]) []byte {
	var frame []byte
	for wi, w := range changed {
		for w != 0 {
			v := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if topo.mirrored[v>>6]>>(v&63)&1 != 0 {
				frame = vc.Append(binary.LittleEndian.AppendUint32(frame, uint32(v)), masterVals[v])
			}
		}
	}
	return frame
}

// loopExchanger implements the Exchanger contract entirely in-process over W
// ShardComputes — a wire-free replica of what internal/dist does over HTTP:
// one vertex frame per worker in, Ingest, Scan, one slab per partition out,
// merged in ascending partition order. Comparing RunExchanged(loopExchanger)
// against Run proves the exchanger contract and the worker half of a
// superstep preserve bit-identical results and stats, independent of any
// transport: if the distributed path ever diverges, this narrows the fault to
// the wire layer.
type loopExchanger[V, M any] struct {
	pg     *PartitionedGraph
	prog   Program[V, M]
	vc     Codec[V]
	mc     Codec[M]
	topos  []*ShardTopology
	shards []*ShardCompute[V, M]
}

// newLoopExchanger splits pg over W in-process workers, each scanning on
// scanWorkers goroutines.
func newLoopExchanger[V, M any](t *testing.T, pg *PartitionedGraph, prog Program[V, M], vc Codec[V], mc Codec[M], W, scanWorkers int) *loopExchanger[V, M] {
	t.Helper()
	ex := &loopExchanger[V, M]{pg: pg, prog: prog, vc: vc, mc: mc, topos: shardTopologies(pg, W)}
	for _, topo := range ex.topos {
		sc, err := NewShardCompute(prog, topo, vc, mc)
		if err != nil {
			t.Fatal(err)
		}
		sc.workers = scanWorkers
		ex.shards = append(ex.shards, sc)
	}
	return ex
}

func (ex *loopExchanger[V, M]) Exchange(ctx context.Context, _ int, changed []uint64, masterVals []V, deliver func(gidx int32, m M), ss *SuperstepStats) error {
	// Broadcast is charged per mirror, as the engine's phase 1 counts it,
	// however few pairs the frames carry.
	reps := ex.pg.ReplicaCounts()
	for wi, w := range changed {
		for w != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			ss.BroadcastMsgs += int64(reps[v])
			ss.BroadcastBytes += int64(reps[v]) * int64(ex.prog.StateSize(masterVals[v]))
		}
	}
	for w, sc := range ex.shards {
		if err := sc.Ingest(ctx, vertexFrame(ex.topos[w], changed, masterVals, ex.vc)); err != nil {
			return err
		}
		if err := sc.Scan(ctx); err != nil {
			return err
		}
	}
	// Reduce: partitions ascending, locals ascending within each — per
	// destination vertex that is ascending-partition merge order, matching
	// the engine's reduce phase.
	ss.ComputePerPart = make([]float64, ex.pg.NumParts)
	pairSize := 4 + ex.mc.Size()
	for p := 0; p < ex.pg.NumParts; p++ {
		cs, slab, n := ex.shards[p%len(ex.shards)].Section(p)
		if len(slab) != n*pairSize {
			return fmt.Errorf("partition %d: slab of %d bytes for %d pairs", p, len(slab), n)
		}
		ss.EdgesScanned += cs.Scanned
		ss.ActiveEdges += cs.Visited
		ss.MsgsEmitted += cs.Emitted
		ss.ComputePerPart[p] = cs.Cost
		lv := ex.pg.Parts[p].LocalVerts
		for ; len(slab) > 0; slab = slab[pairSize:] {
			m := ex.mc.Decode(slab[4:pairSize])
			deliver(lv[binary.LittleEndian.Uint32(slab)], m)
			ss.ReduceMsgs++
			ss.ReduceBytes += int64(ex.prog.MsgSize(m))
		}
	}
	return nil
}

// runBoth runs the program through the plain engine and through the
// loopback exchanger — one, two and three in-process workers, scanning on one
// goroutine and on eight — and requires bit-identical values and deeply equal
// stats.
func runBoth[V comparable, M any](t *testing.T, pg *PartitionedGraph, prog Program[V, M], vc Codec[V], mc Codec[M]) {
	t.Helper()
	want, wantStats, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, W := range []int{1, 2, 3} {
		for _, scanWorkers := range []int{1, 8} {
			got, gotStats, err := RunExchanged(context.Background(), pg, prog, newLoopExchanger(t, pg, prog, vc, mc, W, scanWorkers))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("value count %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("W=%d scan=%d: vertex %d: exchanged %v != local %v", W, scanWorkers, i, got[i], want[i])
				}
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("W=%d scan=%d: stats diverge:\nexchanged %+v\nlocal     %+v", W, scanWorkers, gotStats, wantStats)
			}
		}
	}
}

// TestExchangerEquivalence proves the Exchanger seam is lossless: an
// in-process exchanger built from the exported ShardTopology/ShardCompute
// surface reproduces Run bit-for-bit (values and stats) for a dense
// AllEdges program (PageRank-shaped, float64 merge-order-sensitive) and a
// sparse frontier program (CC-shaped), across partition counts, worker
// counts (with three workers some changed vertex has no mirror on one of
// them), scan parallelism and both scan policies.
func TestExchangerEquivalence(t *testing.T) {
	for _, seed := range []uint64{7, 21} {
		g := randomGraph(seed, 120, 900)
		for _, numParts := range []int{1, 3, 8} {
			pg := mustPartition(t, g, partition.RandomVertexCut(), numParts)
			runBoth(t, pg, pagerankProgram(pg), f64Wire{}, f64Wire{})
			runBoth(t, pg, minLabelProgram(), i64Wire{}, i64Wire{})

			sparse := minLabelProgram()
			sparse.ScanPolicy = ScanSparse
			runBoth(t, pg, sparse, i64Wire{}, i64Wire{})

			dense := minLabelProgram()
			dense.ScanPolicy = ScanDense
			runBoth(t, pg, dense, i64Wire{}, i64Wire{})
		}
	}
}

// TestRunExchangedNilExchanger pins the guard.
func TestRunExchangedNilExchanger(t *testing.T) {
	g := randomGraph(5, 10, 30)
	pg := mustPartition(t, g, partition.RandomVertexCut(), 2)
	if _, _, err := RunExchanged[float64, float64](context.Background(), pg, pagerankProgram(pg), nil); err == nil {
		t.Fatal("want error for nil exchanger")
	}
}
