package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// encodeBroadcastFrame assembles a broadcast frame from ready-made partition
// slabs — the test-side encoder; the coordinator writes its frames in place
// (exchanger.encodeBroadcast).
func encodeBroadcastFrame(step int, parts []framePart) []byte {
	out := make([]byte, frameHeaderSize)
	putFrameHeader(out, magicBroadcast, step, len(parts))
	for i := range parts {
		out = binary.LittleEndian.AppendUint32(out, uint32(parts[i].part))
		out = binary.LittleEndian.AppendUint32(out, uint32(parts[i].n))
		out = append(out, parts[i].pairs...)
	}
	return out
}

// f64Pair appends one (local, float64) broadcast pair to a slab.
func f64Pair(slab []byte, local uint32, v float64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(slab, local), math.Float64bits(v))
}

// stepRig is a two-worker cluster with one graph's shards installed, for
// posting hand-made frames at worker 0 (which owns the even partitions).
type stepRig struct {
	pool   *Pool
	worker *Worker // worker 0; its handlers are called without a socket
	pg     *pregel.PartitionedGraph
	key    string    // worker 0's shard
	want   []float64 // local pagerank, the reference for serves
	valid  []byte    // superstep 1 with every mirror of worker 0 set to 1
	reduce []byte    // worker 0's reduce frame for valid on a fresh run
	nRuns  int
}

func newStepRig(tb testing.TB) *stepRig {
	tb.Helper()
	urls := make([]string, 2)
	workers := make([]*Worker, 2)
	for i := range urls {
		workers[i] = NewWorker()
		srv := httptest.NewServer(workers[i].Handler())
		tb.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	// A dozen vertices: the fuzzer minimizes every interesting frame in time
	// quadratic in its length, and kilobyte frames stall it for a minute each.
	g := randomGraph(23, 12, 60)
	assign, err := partition.RandomVertexCut().Partition(g, 4)
	if err != nil {
		tb.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraph(g, assign, 4)
	if err != nil {
		tb.Fatal(err)
	}
	r := &stepRig{pool: NewPool(urls), worker: workers[0], pg: pg}
	// One ordinary run ships both shards and gives the reference.
	if r.want, _, err = algorithms.PageRank(context.Background(), pg, 4, algorithms.DefaultResetProb); err != nil {
		tb.Fatal(err)
	}
	r.serves(tb)
	r.key = shardKey(pg.G, pg.TopologySum(), pg.NumParts, 0, 2)
	r.valid = encodeBroadcastFrame(1, []framePart{r.fullSlab(0), r.fullSlab(2)})
	id := r.startRun(tb)
	rec := r.post(id, r.valid)
	if rec.Code != http.StatusOK {
		tb.Fatalf("valid superstep 1: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	r.reduce = rec.Body.Bytes()
	r.finish(id)
	return r
}

// serves runs pagerank across the cluster and requires the local bits.
func (r *stepRig) serves(tb testing.TB) {
	tb.Helper()
	got, _, err := PageRank(context.Background(), r.pool, r.pg, 4, algorithms.DefaultResetProb)
	if err != nil {
		tb.Fatalf("valid run after hostile frames: %v", err)
	}
	for i := range r.want {
		if math.Float64bits(got[i]) != math.Float64bits(r.want[i]) {
			tb.Fatalf("valid run after hostile frames: vertex %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(r.want[i]))
		}
	}
}

// startRun binds a fresh pagerank run on worker 0 and returns its id.
func (r *stepRig) startRun(tb testing.TB) string {
	tb.Helper()
	r.nRuns++
	spec, err := json.Marshal(RunSpec{Run: "hostile-" + strconv.Itoa(r.nRuns), Shard: r.key,
		Algorithm: "pagerank", Iters: 4, ResetProb: algorithms.DefaultResetProb})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.worker.handleRunStart(rec, httptest.NewRequest(http.MethodPost, "/dist/v1/runs", bytes.NewReader(spec)))
	if rec.Code != http.StatusNoContent {
		tb.Fatalf("RunStart: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return "hostile-" + strconv.Itoa(r.nRuns)
}

// stepsCleanly posts the valid superstep 1 at a fresh run on worker 0 and
// requires the reference reduce frame, byte for byte.
func (r *stepRig) stepsCleanly(tb testing.TB) {
	tb.Helper()
	id := r.startRun(tb)
	if rec := r.post(id, r.valid); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), r.reduce) {
		tb.Fatalf("fresh run after hostile frames: status %d, reduce frame differs from the reference: %v",
			rec.Code, !bytes.Equal(rec.Body.Bytes(), r.reduce))
	}
	r.finish(id)
}

// post sends one frame to the run's step endpoint on worker 0.
func (r *stepRig) post(id string, frame []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/dist/v1/runs/"+id+"/step", bytes.NewReader(frame))
	req.SetPathValue("id", id)
	rec := httptest.NewRecorder()
	r.worker.handleStep(rec, req)
	return rec
}

func (r *stepRig) finish(id string) {
	req := httptest.NewRequest(http.MethodPost, "/dist/v1/runs/"+id+"/finish", nil)
	req.SetPathValue("id", id)
	r.worker.handleRunFinish(httptest.NewRecorder(), req)
}

// fullSlab is partition p's broadcast section with every mirror set to 1.
func (r *stepRig) fullSlab(p int) framePart {
	fp := framePart{part: p, n: r.pg.Parts[p].NumLocalVertices()}
	for l := 0; l < fp.n; l++ {
		fp.pairs = f64Pair(fp.pairs, uint32(l), 1)
	}
	return fp
}

// hostileFrame is one malformed first superstep and the status it must get.
type hostileFrame struct {
	name   string
	frame  []byte
	status int
}

func (r *stepRig) hostileFrames() []hostileFrame {
	valid := r.valid
	slab0 := r.fullSlab(0)
	n0 := uint32(slab0.n)
	onePair := func(part int, local uint32) []byte {
		return encodeBroadcastFrame(1, []framePart{{part: part, n: 1, pairs: f64Pair(nil, local, 1)}})
	}
	wrongMagic := bytes.Clone(valid)
	wrongMagic[3] = 'R'
	hugeCount := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hugeCount[8:], math.MaxUint32)
	hugePairs := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hugePairs[frameHeaderSize+4:], math.MaxUint32)
	return []hostileFrame{
		{"empty body", nil, http.StatusBadRequest},
		{"header cut short", valid[:7], http.StatusBadRequest},
		{"wrong magic", wrongMagic, http.StatusBadRequest},
		{"slab truncated mid-pair", valid[:len(valid)-5], http.StatusBadRequest},
		{"slab truncated by a whole pair", valid[:len(valid)-12], http.StatusBadRequest},
		{"slab three bytes longer than its pairs", append(bytes.Clone(valid), 1, 2, 3), http.StatusBadRequest},
		{"part count beyond the frame", hugeCount, http.StatusBadRequest},
		{"pair count beyond the frame", hugePairs, http.StatusBadRequest},
		{"local index one past the table", onePair(0, n0), http.StatusBadRequest},
		{"local index far out of range", onePair(0, math.MaxUint32), http.StatusBadRequest},
		{"partition owned by the other worker", onePair(1, 0), http.StatusBadRequest},
		{"partition beyond the topology", onePair(4, 0), http.StatusBadRequest},
		{"partition index with the sign bit", onePair(-1, 0), http.StatusBadRequest},
		{"partition sent twice", encodeBroadcastFrame(1, []framePart{slab0, slab0}), http.StatusBadRequest},
		{"superstep 2 before 1", encodeBroadcastFrame(2, nil), http.StatusConflict},
		{"superstep 0", encodeBroadcastFrame(0, nil), http.StatusConflict},
	}
}

// TestHostileStepFrames posts each malformed frame at a fresh run: it must
// be refused with its 4xx, never applied past the refusal point in a way a
// later run could see — the cluster still answers a valid run with the local
// engine's bits after every one of them.
func TestHostileStepFrames(t *testing.T) {
	r := newStepRig(t)
	for _, h := range r.hostileFrames() {
		id := r.startRun(t)
		if rec := r.post(id, h.frame); rec.Code != h.status {
			t.Errorf("%s: status %d (%s), want %d", h.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), h.status)
		}
		// The refused frame did not advance the run: superstep 1 is still next.
		if rec := r.post(id, r.valid); rec.Code != http.StatusOK {
			t.Errorf("%s: valid superstep 1 afterwards got %d (%s)", h.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		r.finish(id)
		r.stepsCleanly(t)
		r.serves(t)
	}
	if rec := r.post("no-such-run", encodeBroadcastFrame(1, nil)); rec.Code != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404", rec.Code)
	}
}

// FuzzStepFrame throws arbitrary bytes at the step endpoint of a bound run.
// Whatever arrives, the worker answers 200 with a well-formed reduce frame
// for its two partitions, or 400/409 — no panic, no 5xx — and then steps a
// fresh run to the reference reduce frame. Everything in the loop is a direct
// handler call: sockets and their goroutines would make coverage differ from
// one execution of an input to the next.
func FuzzStepFrame(f *testing.F) {
	r := newStepRig(f)
	f.Add(r.valid)
	f.Add(encodeBroadcastFrame(1, nil))
	for _, h := range r.hostileFrames() {
		f.Add(h.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		id := r.startRun(t)
		rec := r.post(id, frame)
		r.finish(id)
		switch rec.Code {
		case http.StatusOK:
			step, parts, err := parseFrame(rec.Body.Bytes(), magicReduce, 8, true)
			if err != nil || step != 1 || len(parts) != 2 || parts[0].part != 0 || parts[1].part != 2 {
				t.Fatalf("accepted frame answered a malformed reduce frame: step %d, %d parts, %v", step, len(parts), err)
			}
		case http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		r.stepsCleanly(t)
	})
	f.Cleanup(func() { r.serves(f) })
}
