package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// rawBroadcastFrame assembles a broadcast frame from its parts, well-formed
// or not — the test-side encoder; the coordinator writes its frames in place
// (exchanger.encodeBroadcast).
func rawBroadcastFrame(magic uint32, step, n int, pairs []byte) []byte {
	out := make([]byte, frameHeaderSize, frameHeaderSize+len(pairs))
	putFrameHeader(out, magic, step, n)
	return append(out, pairs...)
}

// broadcastFrame is the well-formed frame carrying the given float64 pairs.
func broadcastFrame(step int, pairs []byte) []byte {
	return rawBroadcastFrame(magicBroadcast, step, len(pairs)/12, pairs)
}

// f64Pair appends one (global index, float64) broadcast pair.
func f64Pair(pairs []byte, gidx uint32, v float64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(pairs, gidx), math.Float64bits(v))
}

// f64Pairs is one pair per vertex, in the order given, all carrying v.
func f64Pairs(vs []int32, v float64) []byte {
	var pairs []byte
	for _, g := range vs {
		pairs = f64Pair(pairs, uint32(g), v)
	}
	return pairs
}

// stepRig is a two-worker cluster with one graph's shards installed, for
// posting hand-made frames at worker 0 (which owns the even partitions).
type stepRig struct {
	pool   *Pool
	worker *Worker // worker 0; its handlers are called without a socket
	pg     *pregel.PartitionedGraph
	key    string    // worker 0's shard
	want   []float64 // local pagerank, the reference for serves
	here   []int32   // the vertices mirrored on worker 0, ascending
	absent int32     // a vertex with no mirror on worker 0
	valid  []byte    // superstep 1 with every vertex of here set to 1
	reduce []byte    // worker 0's reduce frame for valid on a fresh run
	// partial is superstep 1 naming the vertices of here but the first, and
	// partialReduce worker 0's answer on a fresh run: what a run must still
	// answer after a refused frame that led with a value for here[0].
	partial, partialReduce []byte
	nRuns                  int
}

// hostileLead is the value hostile frames carry for here[0] ahead of
// whatever gets them refused: were any of a refused frame applied, partial's
// answer would show it.
const hostileLead = 99

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
	g := randomGraph(4, 12, 24)
	a, err := partition.Assign(g, partition.RandomVertexCut(), 4)
	if err != nil {
		tb.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	r := &stepRig{pool: NewPool(urls), worker: workers[0], pg: pg, absent: -1}
	// One ordinary run ships both shards and gives the reference.
	if r.want, _, err = algorithms.PageRank(context.Background(), pg, 4, algorithms.DefaultResetProb); err != nil {
		tb.Fatal(err)
	}
	r.serves(tb)
	r.key = shardKey(pg.G, pg.TopologySum(), pg.NumParts, 0, 2)
	onWorker0 := func(v int32) bool {
		for p, part := range pg.Parts {
			if _, ok := slices.BinarySearch(part.LocalVerts, v); ok && workerOf(p, 2) == 0 {
				return true
			}
		}
		return false
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if onWorker0(v) {
			r.here = append(r.here, v)
		} else {
			r.absent = v
		}
	}
	if len(r.here) < 3 || r.absent < 0 {
		tb.Fatalf("fixture: %d vertices mirrored on worker 0, absent vertex %d", len(r.here), r.absent)
	}
	r.valid = broadcastFrame(1, f64Pairs(r.here, 1))
	r.reduce = r.freshReduce(tb, r.valid)
	r.partial = broadcastFrame(1, f64Pairs(r.here[1:], 1))
	r.partialReduce = r.freshReduce(tb, r.partial)
	led := broadcastFrame(1, append(f64Pair(nil, uint32(r.here[0]), hostileLead), f64Pairs(r.here[1:], 1)...))
	if bytes.Equal(r.freshReduce(tb, led), r.partialReduce) {
		tb.Fatal("fixture: a value for here[0] does not show in the reduce frame")
	}
	return r
}

// freshReduce posts frame as superstep 1 of a fresh run on worker 0 and
// returns the reduce frame.
func (r *stepRig) freshReduce(tb testing.TB, frame []byte) []byte {
	tb.Helper()
	id := r.startRun(tb)
	defer r.finish(id)
	rec := r.post(id, frame)
	if rec.Code != http.StatusOK {
		tb.Fatalf("superstep 1 of a fresh run: status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes()
}

// serves runs pagerank across the cluster and requires the local bits.
func (r *stepRig) serves(tb testing.TB) {
	tb.Helper()
	got, _, err := runPageRank(context.Background(), r.pool, r.pg, 4)
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
	if got := r.freshReduce(tb, r.valid); !bytes.Equal(got, r.reduce) {
		tb.Fatal("fresh run after hostile frames: reduce frame differs from the reference")
	}
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

// hostileFrame is one malformed first superstep and the status it must get.
type hostileFrame struct {
	name   string
	frame  []byte
	status int
}

func (r *stepRig) hostileFrames() []hostileFrame {
	valid := r.valid
	nv := uint32(r.pg.G.NumVertices())
	here := r.here
	// led is a frame whose first pair is well-formed and carries hostileLead
	// for here[0]; rest follows it.
	led := func(rest []byte) []byte {
		return broadcastFrame(1, append(f64Pair(nil, uint32(here[0]), hostileLead), rest...))
	}
	wrongMagic := bytes.Clone(valid)
	wrongMagic[3] = 'R'
	oldMagic := bytes.Clone(valid)
	oldMagic[3] = 'B' // "CFDB": one pair per mirror, grouped by partition
	hugeCount := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hugeCount[8:], math.MaxUint32)
	// The absent vertex goes where it keeps the frame ascending.
	noMirror := led(f64Pair(nil, uint32(r.absent), 1))
	if r.absent < here[0] {
		noMirror = broadcastFrame(1, f64Pair(f64Pair(nil, uint32(r.absent), 1), uint32(here[0]), hostileLead))
	}
	return []hostileFrame{
		{"empty body", nil, http.StatusBadRequest},
		{"header cut short", valid[:7], http.StatusBadRequest},
		{"wrong magic", wrongMagic, http.StatusBadRequest},
		{"the per-mirror frame's magic", oldMagic, http.StatusBadRequest},
		{"truncated mid-pair", valid[:len(valid)-5], http.StatusBadRequest},
		{"truncated by a whole pair", valid[:len(valid)-12], http.StatusBadRequest},
		{"three bytes longer than its pairs", append(bytes.Clone(valid), 1, 2, 3), http.StatusBadRequest},
		{"pair count beyond the frame", hugeCount, http.StatusBadRequest},
		{"pair count short of the body", rawBroadcastFrame(magicBroadcast, 1, 1, f64Pairs(here[:2], hostileLead)), http.StatusBadRequest},
		{"global index one past the vertex table", led(f64Pair(nil, nv, 1)), http.StatusBadRequest},
		{"global index far out of range", led(f64Pair(nil, math.MaxUint32, 1)), http.StatusBadRequest},
		{"indices descending", led(f64Pairs([]int32{here[2], here[1]}, 1)), http.StatusBadRequest},
		{"vertex sent twice", led(f64Pairs([]int32{here[1], here[1]}, 1)), http.StatusBadRequest},
		{"vertex with no mirror on this worker", noMirror, http.StatusBadRequest},
		{"superstep 2 before 1", broadcastFrame(2, f64Pairs(here[:1], hostileLead)), http.StatusConflict},
		{"superstep 0", broadcastFrame(0, f64Pairs(here[:1], hostileLead)), http.StatusConflict},
	}
}

// TestHostileStepFrames posts each malformed frame at a fresh run: it must
// be refused with its 4xx and leave the run's mirror state untouched — the
// same run then answers superstep 1 for every vertex but the one the hostile
// frame led with exactly as a fresh run does — and the cluster still answers
// a valid run with the local engine's bits after every one of them.
func TestHostileStepFrames(t *testing.T) {
	r := newStepRig(t)
	for _, h := range r.hostileFrames() {
		id := r.startRun(t)
		if rec := r.post(id, h.frame); rec.Code != h.status {
			t.Errorf("%s: status %d (%s), want %d", h.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), h.status)
		}
		// The refused frame neither advanced the run (superstep 1 is still
		// next) nor wrote a mirror.
		if rec := r.post(id, r.partial); rec.Code != http.StatusOK {
			t.Errorf("%s: valid superstep 1 afterwards got %d (%s)", h.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		} else if !bytes.Equal(rec.Body.Bytes(), r.partialReduce) {
			t.Errorf("%s: the run answers superstep 1 differently after the refused frame: some of it was applied", h.name)
		}
		r.finish(id)
		r.stepsCleanly(t)
		r.serves(t)
	}
	if rec := r.post("no-such-run", broadcastFrame(1, nil)); rec.Code != http.StatusNotFound {
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
	f.Add(broadcastFrame(1, nil))
	for _, h := range r.hostileFrames() {
		f.Add(h.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		id := r.startRun(t)
		rec := r.post(id, frame)
		r.finish(id)
		switch rec.Code {
		case http.StatusOK:
			sections := make([]reduceSection, r.pg.NumParts)
			step, err := parseReduceFrame(rec.Body.Bytes(), 8, r.pg, 0, 2, sections)
			if err != nil || step != 1 || !sections[0].seen || !sections[2].seen {
				t.Fatalf("accepted frame answered a malformed reduce frame: step %d, sections %+v, %v", step, sections, err)
			}
		case http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("status %d (%s)", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		r.stepsCleanly(t)
	})
	f.Cleanup(func() { r.serves(f) })
}
