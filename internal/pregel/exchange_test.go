package pregel

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"cutfit/internal/partition"
)

// setMirrorRef is the per-pair mirror install the bulk SetMirrors replaced,
// kept as its oracle: one value, one frontier bit, one popcount step.
func (sc *ShardCompute[V, M]) setMirrorRef(p int, local int32, v V) error {
	sp, err := sc.owned(p)
	if err != nil {
		return err
	}
	if local < 0 || int(local) >= len(sp.vals) {
		return fmt.Errorf("pregel: shard compute: partition %d local index %d out of range [0,%d)", p, local, len(sp.vals))
	}
	sp.vals[local] = v
	w := &sp.fw[local>>6]
	bit := uint64(1) << (uint32(local) & 63)
	if *w&bit == 0 {
		*w |= bit
		sp.act++
	}
	return nil
}

// messagesRef is the per-pair message iterator AppendMessages replaced, kept
// as its oracle: partition p's combined messages in ascending local order.
func (sc *ShardCompute[V, M]) messagesRef(p int, fn func(local int32, m M)) {
	em := &sc.parts[p].em
	for l, ok := range em.has {
		if ok {
			fn(int32(l), em.acc[l])
		}
	}
}

// loopExchanger implements the Exchanger contract entirely in-process via
// ShardCompute — a wire-free replica of what internal/dist does over HTTP.
// Comparing RunExchanged(loopExchanger) against Run proves the exchanger
// contract itself preserves bit-identical results and stats, independent of
// any transport: if the distributed path ever diverges, this narrows the
// fault to the wire layer.
type loopExchanger[V, M any] struct {
	pg         *PartitionedGraph
	sc         *ShardCompute[V, M]
	stateBytes func(V) int
}

func newLoopExchanger[V, M any](t *testing.T, pg *PartitionedGraph, prog Program[V, M]) *loopExchanger[V, M] {
	t.Helper()
	sc, err := NewShardCompute(prog, pg.G.Vertices(), pg.Parts)
	if err != nil {
		t.Fatal(err)
	}
	return &loopExchanger[V, M]{pg: pg, sc: sc, stateBytes: prog.StateSize}
}

func (ex *loopExchanger[V, M]) Exchange(_ context.Context, _ int, changed []uint64, masterVals []V, deliver func(gidx int32, m M), ss *SuperstepStats) error {
	ex.sc.BeginSuperstep()
	// Broadcast: walk the changed bitset ascending and ship each changed
	// master to all its mirrors, counting exactly as the engine's phase 1.
	for wi, w := range changed {
		base := int32(wi << 6)
		for w != 0 {
			v := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			val := masterVals[v]
			for _, ref := range ex.pg.MirrorsOf(v) {
				if err := ex.sc.setMirrorRef(int(ref.Part), ref.Local, val); err != nil {
					return err
				}
				ss.BroadcastMsgs++
				ss.BroadcastBytes += int64(ex.stateBytes(val))
			}
		}
	}
	// Compute every partition; ascending order is not required here (each
	// partition's accumulator is independent) but matches the dist worker.
	ss.ComputePerPart = make([]float64, ex.pg.NumParts)
	for p := 0; p < ex.pg.NumParts; p++ {
		cs, err := ex.sc.Compute(p)
		if err != nil {
			return err
		}
		ss.EdgesScanned += cs.Scanned
		ss.ActiveEdges += cs.Visited
		ss.MsgsEmitted += cs.Emitted
		ss.ComputePerPart[p] = cs.Cost
	}
	// Reduce: partitions ascending, locals ascending within each — per
	// destination vertex that is ascending-partition merge order, matching
	// the engine's reduce phase.
	for p := 0; p < ex.pg.NumParts; p++ {
		lv := ex.pg.Parts[p].LocalVerts
		ex.sc.messagesRef(p, func(local int32, m M) {
			deliver(lv[local], m)
		})
	}
	return nil
}

// runBoth runs the program through the plain engine and through the
// loopback exchanger and requires bit-identical values and deeply equal
// stats.
func runBoth[V comparable, M any](t *testing.T, pg *PartitionedGraph, prog Program[V, M]) {
	t.Helper()
	want, wantStats, err := Run(context.Background(), pg, prog)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := RunExchanged(context.Background(), pg, prog, newLoopExchanger(t, pg, prog))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("value count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: exchanged %v != local %v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stats diverge:\nexchanged %+v\nlocal     %+v", gotStats, wantStats)
	}
}

// TestExchangerEquivalence proves the Exchanger seam is lossless: an
// in-process exchanger built from the exported ShardCompute/MirrorsOf
// surface reproduces Run bit-for-bit (values and stats) for a dense
// AllEdges program (PageRank-shaped, float64 merge-order-sensitive) and a
// sparse frontier program (CC-shaped), across partition counts and both
// scan policies.
func TestExchangerEquivalence(t *testing.T) {
	for _, seed := range []uint64{7, 21} {
		g := randomGraph(seed, 120, 900)
		for _, numParts := range []int{1, 3, 8} {
			pg := mustPartition(t, g, partition.RandomVertexCut(), numParts)
			runBoth(t, pg, pagerankProgram(pg))
			runBoth(t, pg, minLabelProgram())

			sparse := minLabelProgram()
			sparse.ScanPolicy = ScanSparse
			runBoth(t, pg, sparse)

			dense := minLabelProgram()
			dense.ScanPolicy = ScanDense
			runBoth(t, pg, dense)
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
