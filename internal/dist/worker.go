package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// maxShards bounds the worker's shard cache; least-recently-installed
// generations are evicted first. Deep enough for a base plus several
// Grow/Shrink generations of a handful of graphs.
const maxShards = 8

// maxRuns bounds the worker's live runs: one whose coordinator died between
// RunStart and RunFinish would hold its compute slabs, and its shard against
// eviction, forever. Beyond the bound (four times what a coordinator admits
// at once by default) the run started longest ago is dropped; a coordinator
// alive after all gets 404 for its next superstep and falls back to local.
const maxRuns = 256

// maxBodyBytes caps request bodies (shard containers dominate).
const maxBodyBytes = 1 << 30

// statusClientClosedRequest is the code the request counter shows for a
// superstep abandoned because the coordinator hung up (nginx's convention;
// net/http has no name for it). Nothing reads the reply.
const statusClientClosedRequest = 499

// maxNumParts caps the partition count a shard may declare: the worker's
// tables are indexed by partition, so the count sizes allocations before any
// partition has been seen.
const maxNumParts = 1 << 20

// workerShard is one installed shard generation: the built engine partitions
// with their mirrored-vertex set, and the vertex/degree tables the algorithm
// programs need.
type workerShard struct {
	key    string
	verts  []graph.VertexID
	outDeg []int32
	topo   *pregel.ShardTopology
}

// buildWorkerShard materializes a decoded shard payload.
func buildWorkerShard(key string, sp *snap.ShardPayload) (*workerShard, error) {
	if sp.NumParts > maxNumParts {
		return nil, fmt.Errorf("dist: shard %s claims %d partitions, limit %d", key, sp.NumParts, maxNumParts)
	}
	if len(sp.Verts) != sp.NumVerts {
		return nil, fmt.Errorf("dist: shard %s holds %d vertices, meta says %d", key, len(sp.Verts), sp.NumVerts)
	}
	if len(sp.OutDeg) != sp.NumVerts {
		return nil, fmt.Errorf("dist: shard %s out-degree table holds %d entries, want %d", key, len(sp.OutDeg), sp.NumVerts)
	}
	parts := make([]*pregel.Partition, sp.NumParts)
	for i := range sp.Parts {
		p := &sp.Parts[i]
		part, err := pregel.NewPartition(sp.NumVerts, p.LocalVerts, p.EdgeSrc, p.EdgeDst)
		if err != nil {
			return nil, fmt.Errorf("dist: shard %s partition %d: %w", key, p.Index, err)
		}
		parts[p.Index] = part
	}
	return &workerShard{
		key:    key,
		verts:  sp.Verts,
		outDeg: sp.OutDeg,
		topo:   pregel.NewShardTopology(sp.Verts, parts),
	}, nil
}

// shardRun is a run's compute state with the program's type parameters
// erased, so the worker can hold runs of different algorithms in one table:
// the methods of *pregel.ShardCompute[V, M], none of which mention V or M.
type shardRun interface {
	Ingest(ctx context.Context, pairs []byte) error
	Scan(ctx context.Context) error
	Section(p int) (cs pregel.ComputeStats, pairs []byte, n int)
}

// workerRun is one live run's compute state plus its superstep sequencer.
// body and reduce are the run's frame buffers: one superstep's frames are
// about the size of the last one's, so the broadcast frame is read and the
// reduce frame built in the same storage round after round, and both go
// with the run at RunFinish.
type workerRun struct {
	mu       sync.Mutex
	shard    *workerShard
	run      shardRun
	valSize  int    // bytes of one vertex value in a broadcast frame
	started  uint64 // Worker.started when the run was bound
	lastStep int
	body     []byte
	reduce   reduceFrameBuilder
}

// Worker owns a process's shard cache and live runs and serves the
// /dist/v1 protocol.
type Worker struct {
	mu      sync.Mutex
	shards  map[string]*workerShard
	order   []string // install order, oldest first, for eviction
	runs    map[string]*workerRun
	started uint64 // runs bound so far; a run's is its age
}

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	return &Worker{
		shards: make(map[string]*workerShard),
		runs:   make(map[string]*workerRun),
	}
}

// installShard stores a built shard, evicting the oldest generation beyond
// the cache bound.
func (w *Worker) installShard(ws *workerShard) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.shards[ws.key]; !ok {
		w.order = append(w.order, ws.key)
	}
	w.shards[ws.key] = ws
	for len(w.order) > maxShards {
		oldest := w.order[0]
		w.order = w.order[1:]
		delete(w.shards, oldest)
	}
}

// bindRun makes wr the live run id, dropping the run started longest ago
// beyond the bound.
func (w *Worker) bindRun(id string, wr *workerRun) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.started++
	wr.started = w.started
	w.runs[id] = wr
	if len(w.runs) > maxRuns {
		oldest := id
		for k, r := range w.runs {
			if r.started < w.runs[oldest].started {
				oldest = k
			}
		}
		delete(w.runs, oldest)
	}
}

func (w *Worker) shard(key string) (*workerShard, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.shards[key]
	return ws, ok
}

// NumShards reports the cached shard count (for healthz and tests).
func (w *Worker) NumShards() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.shards)
}

// Handler builds the worker's HTTP mux from the ProtocolMessages table —
// every rpc entry must resolve to a handler (handlerFor panics otherwise),
// so the protocol table and the served surface cannot drift apart.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, pm := range ProtocolMessages {
		if pm.Kind != "rpc" {
			continue
		}
		mux.Handle(pm.Route, w.instrument(pm.Name, w.handlerFor(pm.Name)))
	}
	return mux
}

// handlerFor maps a protocol rpc name to its implementation.
func (w *Worker) handlerFor(name string) http.HandlerFunc {
	switch name {
	case "Health":
		return w.handleHealth
	case "ShardInstall":
		return w.handleShardInstall
	case "RunStart":
		return w.handleRunStart
	case "SuperstepExchange":
		return w.handleStep
	case "RunFinish":
		return w.handleRunFinish
	}
	panic(fmt.Sprintf("dist: protocol rpc %q has no handler", name))
}

// statusRecorder captures the status code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (w *Worker) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: rw, code: http.StatusOK}
		h(sr, r)
		cWorkerRequests.With(endpoint, strconv.Itoa(sr.code)).Inc()
	})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{"status": "ok", "shards": w.NumShards()})
}

// maxPresize bounds how much of a declared Content-Length is allocated before
// any of the body has arrived; a longer body grows the buffer as it comes.
const maxPresize = 64 << 20

// readSized reads r to EOF into buf's storage, grown up front to the declared
// length n (an HTTP Content-Length, -1 when unknown), so a megabyte frame
// costs at most one allocation where io.ReadAll regrows from 512 bytes, and
// none when buf already held a frame of that size.
func readSized(buf []byte, r io.Reader, n int64) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	// MinRead beyond n, so the read that reports EOF has somewhere to go.
	b.Grow(int(max(0, min(n, maxPresize))) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// readBody reads a request body, bounded by maxBodyBytes, into buf's storage.
func readBody(buf []byte, rw http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := readSized(buf, http.MaxBytesReader(rw, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		http.Error(rw, "reading body: "+err.Error(), http.StatusBadRequest)
		return body, false
	}
	return body, true
}

func (w *Worker) handleShardInstall(rw http.ResponseWriter, r *http.Request) {
	key := r.Header.Get(HeaderShardKey)
	if key == "" {
		http.Error(rw, "missing "+HeaderShardKey, http.StatusBadRequest)
		return
	}
	body, ok := readBody(nil, rw, r)
	if !ok {
		return
	}
	sp, err := snap.DecodeShard(body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	ws, err := buildWorkerShard(key, sp)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.installShard(ws)
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) handleRunStart(rw http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&spec); err != nil {
		http.Error(rw, "decoding run spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if spec.Run == "" {
		http.Error(rw, "run spec missing run id", http.StatusBadRequest)
		return
	}
	ws, ok := w.shard(spec.Shard)
	if !ok {
		http.Error(rw, "shard not installed: "+spec.Shard, http.StatusNotFound)
		return
	}
	// The spec came off the network: an algorithm the cluster does not run,
	// or parameters its table entry's check refuses, bind nothing.
	wiring, err := wiringFor(spec.Algorithm)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	run, valSize, err := wiring.shard(spec, ws)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.bindRun(spec.Run, &workerRun{shard: ws, run: run, valSize: valSize})
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) handleStep(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	wr, ok := w.runs[id]
	w.mu.Unlock()
	if !ok {
		http.Error(rw, "unknown run: "+id, http.StatusNotFound)
		return
	}
	wr.mu.Lock()
	defer wr.mu.Unlock()
	if wr.body, ok = readBody(wr.body, rw, r); !ok {
		return
	}
	step, pairs, err := parseBroadcastFrame(wr.body, wr.valSize)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// Supersteps are strictly sequenced: a retried or reordered frame would
	// double-apply mirror updates, so anything but lastStep+1 is rejected
	// and the coordinator fails the run (and falls back to local).
	if step != wr.lastStep+1 {
		http.Error(rw, fmt.Sprintf("superstep %d out of sequence, expected %d", step, wr.lastStep+1), http.StatusConflict)
		return
	}

	// The request's context ends when the coordinator hangs up — its run was
	// cancelled or has failed on another worker. Nobody is left to read a
	// reply, so the superstep stops at the next partition boundary and the
	// handler only records why; the run's state goes with RunFinish.
	ctx := r.Context()
	err = wr.run.Ingest(ctx, pairs)
	status := http.StatusBadRequest
	if err == nil {
		err = wr.run.Scan(ctx)
		status = http.StatusInternalServerError
	}
	if ctx.Err() != nil {
		rw.WriteHeader(statusClientClosedRequest)
		return
	}
	if err != nil {
		http.Error(rw, err.Error(), status)
		return
	}

	// Every owned partition reports, ascending — AllEdges programs scan
	// regardless of frontier, and the coordinator needs the compute stats
	// even of partitions that produced no messages.
	owned := wr.shard.topo.Owned()
	b := &wr.reduce
	b.reset(step, len(owned))
	for _, p := range owned {
		cs, slab, n := wr.run.Section(p)
		b.appendSection(p, cs, slab, n)
	}
	wr.lastStep = step

	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(b.buf)))
	rw.Write(b.buf)
}

func (w *Worker) handleRunFinish(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.mu.Lock()
	delete(w.runs, id)
	w.mu.Unlock()
	rw.WriteHeader(http.StatusNoContent)
}
