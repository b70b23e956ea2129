package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/gen"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// allocGraph is big enough that a superstep moves thousands of pairs through
// a handful of partitions: an allocation per pair cannot hide in a budget
// sized for the partitions.
func allocGraph(t *testing.T) *pregel.PartitionedGraph {
	t.Helper()
	g, err := gen.ErdosRenyi(3000, 30000, 77)
	if err != nil {
		t.Fatal(err)
	}
	return mustPartition(t, g, partition.RandomVertexCut(), 4)
}

// nullWriter is a ResponseWriter that keeps nothing.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// TestHandleStepAllocs: once a run's frame buffers have seen one superstep,
// ingesting a broadcast frame, fanning it out, scanning on the pool and
// building the reduce frame allocate per request, per scan goroutine and per
// partition, never per pair or mirror.
func TestHandleStepAllocs(t *testing.T) {
	pg := allocGraph(t)
	w := NewWorker()
	ws, err := buildWorkerShard("k", extractShard(pg, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.installShard(ws)
	spec, _ := json.Marshal(RunSpec{Run: "r", Shard: "k", Algorithm: "pagerank", Iters: 1000, ResetProb: algorithms.DefaultResetProb})
	rec := httptest.NewRecorder()
	w.handleRunStart(rec, httptest.NewRequest(http.MethodPost, "/dist/v1/runs", bytes.NewReader(spec)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("RunStart: %d %s", rec.Code, rec.Body)
	}

	// Every vertex changes: one pair each in, one write per mirror slot and
	// one pair per message out.
	nv := pg.G.NumVertices()
	var pairs []byte
	for v := 0; v < nv; v++ {
		pairs = f64Pair(pairs, uint32(v), 1)
	}
	frame := broadcastFrame(0, pairs)
	items := nv + int(pg.TotalMirrors())
	step := 0
	post := func() {
		step++
		binary.LittleEndian.PutUint32(frame[4:], uint32(step))
		req := httptest.NewRequest(http.MethodPost, "/dist/v1/runs/r/step", bytes.NewReader(frame))
		req.SetPathValue("id", "r")
		nw := &nullWriter{h: make(http.Header), code: http.StatusOK}
		w.handleStep(nw, req)
		if nw.code != http.StatusOK {
			t.Fatalf("superstep %d: status %d", step, nw.code)
		}
	}
	post() // sizes the run's buffers
	allocs := testing.AllocsPerRun(20, post)
	budget := float64(32 + 8*pg.NumParts)
	t.Logf("%.0f allocations per superstep of %d pairs and mirror slots over %d partitions (budget %.0f)", allocs, items, pg.NumParts, budget)
	if items < 100*int(budget) {
		t.Fatalf("fixture too small to tell: %d pairs and mirror slots against a budget of %.0f", items, budget)
	}
	if allocs > budget {
		t.Errorf("handleStep allocates %.0f times per superstep, budget %.0f", allocs, budget)
	}
}

// TestExchangeAllocs: the coordinator's side of a steady-state superstep —
// concurrent encode, two round trips over loopback, replies validated as they
// arrive, sharded merge — allocates per worker, per merge shard and per
// partition (most of it net/http's, per request), never per pair.
func TestExchangeAllocs(t *testing.T) {
	ctx := context.Background()
	pg := allocGraph(t)
	pool, _ := startCluster(t, 2)
	pr := vertexOf[float64, float64](t, "pagerank")
	prog := pr.Program(algorithms.ServedParams(1000), pg.G.OutDegrees())
	for w := 0; w < 2; w++ {
		key := shardKey(pg.G, pg.TopologySum(), pg.NumParts, w, 2)
		if err := pool.prepareWorker(ctx, w, key, pg); err != nil {
			t.Fatal(err)
		}
		spec := RunSpec{Run: "allocs", Shard: key, Algorithm: "pagerank", Iters: 1000, ResetProb: algorithms.DefaultResetProb}
		if err := pool.tr.StartRun(ctx, pool.urls[w], spec); err != nil {
			t.Fatal(err)
		}
	}
	ex := newExchanger(pool, pg, "allocs", &prog, pr.VC, pr.MC)
	nv := pg.G.NumVertices()
	changed := make([]uint64, (nv+63)/64)
	for v := 0; v < nv; v++ {
		changed[v>>6] |= 1 << (v & 63)
	}
	vals := make([]float64, nv)
	for i := range vals {
		vals[i] = 1
	}
	// Merge shards deliver concurrently (to different vertices).
	var delivered atomic.Int64
	deliver := func(int32, float64) { delivered.Add(1) }
	step := 0
	var ss pregel.SuperstepStats
	exchange := func() {
		step++
		ss = pregel.SuperstepStats{}
		if err := ex.Exchange(ctx, step, changed, vals, deliver, &ss); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // sizes the frame and reply buffers
	allocs := testing.AllocsPerRun(20, exchange)
	pairs := int(delivered.Load()) / step
	for _, frame := range ex.frames {
		pairs += (len(frame) - frameHeaderSize) / 12
	}
	budget := float64(400 + 8*pg.NumParts)
	t.Logf("%.0f allocations per superstep of %d pairs over %d partitions (budget %.0f)", allocs, pairs, pg.NumParts, budget)
	if pairs < 20*int(budget) {
		t.Fatalf("fixture too small to tell: %d pairs against a budget of %.0f", pairs, budget)
	}
	if allocs > budget {
		t.Errorf("Exchange allocates %.0f times per superstep, budget %.0f", allocs, budget)
	}
}
