package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"cutfit/internal/par"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// prepareWorker ensures worker wIdx holds the shard for (pg, key): nothing
// if the cache says it was sent and not since pushed out (a stale cache is
// healed by RunStart's 404 → re-ship), else the whole shard container. It
// holds the worker's cache lock for the duration, so two runs needing the
// same new shard ship it once; other workers are not kept waiting.
func (p *Pool) prepareWorker(ctx context.Context, wIdx int, key string, pg *pregel.PartitionedGraph) error {
	wc := &p.caches[wIdx]
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if slices.Contains(wc.keys, key) {
		cShards.With("reused").Inc()
		return nil
	}
	if err := p.shipFull(ctx, wIdx, key, pg); err != nil {
		return err
	}
	wc.sent(key)
	return nil
}

// shipFull installs worker wIdx's whole shard of pg under key.
func (p *Pool) shipFull(ctx context.Context, wIdx int, key string, pg *pregel.PartitionedGraph) error {
	full := snap.EncodeShard(extractShard(pg, wIdx, len(p.urls)))
	if err := p.tr.InstallShard(ctx, p.urls[wIdx], key, full); err != nil {
		return err
	}
	cShards.With("full").Inc()
	return nil
}

// startWorker brings worker wIdx to the point where it can step the run:
// its shard resident, the run bound to it.
func (p *Pool) startWorker(ctx context.Context, wIdx int, pg *pregel.PartitionedGraph, spec RunSpec) error {
	if err := p.prepareWorker(ctx, wIdx, spec.Shard, pg); err != nil {
		return err
	}
	err := p.tr.StartRun(ctx, p.urls[wIdx], spec)
	if errors.Is(err, ErrShardMissing) {
		// The worker evicted the shard (or restarted) since the cache
		// last shipped it: re-ship a full container and retry once.
		if err = p.shipFull(ctx, wIdx, spec.Shard, pg); err == nil {
			err = p.tr.StartRun(ctx, p.urls[wIdx], spec)
		}
	}
	return err
}

// forEachWorker runs fn for every worker index at once and returns the first
// error in worker order, else ctx's if it ended before every worker had its
// turn.
func (p *Pool) forEachWorker(ctx context.Context, fn func(w int) error) error {
	W := len(p.urls)
	errs := make([]error, W)
	cancelled := par.ForEach(ctx, W, W, func(w int) { errs[w] = fn(w) })
	return firstError(errs, cancelled)
}

// firstError returns the first non-nil error of errs, else last.
func firstError(errs []error, last error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return last
}

// exchanger ships the engine's mirror phases over the pool: one vertex frame
// out to every worker, one barrier wait, reduce frames validated as they
// arrive and merged back in ascending partition order, sharded by vertex
// range.
type exchanger[V, M any] struct {
	pool  *Pool
	pg    *pregel.PartitionedGraph
	runID string
	prog  *pregel.Program[V, M]
	vc    pregel.Codec[V]
	mc    pregel.Codec[M]

	// mirrored[w] is the set of vertices with at least one mirror in a
	// partition worker w owns, as a bitset over global dense indices: ANDed
	// with the frontier it is exactly what w's broadcast frame must carry.
	// replicas[v] is how many partitions, on any worker, mirror vertex v.
	// liveVerts[p] is partition p's mirror table as the worker's shard holds
	// it — ghosts left out (pregel.Partition.Live) — so it maps the
	// local indices of p's reduce section back to global ones.
	mirrored  [][]uint64
	replicas  []int32
	liveVerts [][]int32

	// Scratch reused across supersteps: the broadcast frames, each worker's
	// reduce frame (read into the same storage every superstep), the reduce
	// sections filed by partition, the round-trip times behind the barrier
	// metric and the merge's per-shard counters.
	frames   [][]byte
	replies  [][]byte
	sections []reduceSection
	rtt      []time.Duration // per worker: frame posted to reply validated
	errs     []error         // per worker
	rMsgs    []int64
	rBytes   []int64
}

func newExchanger[V, M any](pool *Pool, pg *pregel.PartitionedGraph, runID string, prog *pregel.Program[V, M], vc pregel.Codec[V], mc pregel.Codec[M]) *exchanger[V, M] {
	W := pool.Size()
	shards := par.DefaultParallelism()
	if pool.mergeShards > 0 {
		shards = pool.mergeShards
	}
	ex := &exchanger[V, M]{
		pool:      pool,
		pg:        pg,
		runID:     runID,
		prog:      prog,
		vc:        vc,
		mc:        mc,
		mirrored:  make([][]uint64, W),
		replicas:  make([]int32, pg.G.NumVertices()),
		liveVerts: make([][]int32, pg.NumParts),
		frames:    make([][]byte, W),
		replies:   make([][]byte, W),
		sections:  make([]reduceSection, pg.NumParts),
		rtt:       make([]time.Duration, W),
		errs:      make([]error, W),
		rMsgs:     make([]int64, shards),
		rBytes:    make([]int64, shards),
	}
	words := (pg.G.NumVertices() + 63) / 64
	for w := range ex.mirrored {
		ex.mirrored[w] = make([]uint64, words)
	}
	for p, part := range pg.Parts {
		m := ex.mirrored[workerOf(p, W)]
		ex.liveVerts[p], _ = part.Live()
		for _, v := range ex.liveVerts[p] {
			m[v>>6] |= 1 << (uint32(v) & 63)
			ex.replicas[v]++
		}
	}
	return ex
}

// encodeBroadcast fills worker w's broadcast frame: every changed vertex
// mirrored on w, once, ascending — the frontier ANDed with the worker's
// mirrored set, a word at a time (a popcount pass sizes the frame, a second
// pass encodes in place).
func (ex *exchanger[V, M]) encodeBroadcast(w, step int, changed []uint64, masterVals []V) {
	mirrored := ex.mirrored[w]
	n := 0
	for wi, c := range changed {
		n += bits.OnesCount64(c & mirrored[wi])
	}
	pairSize := 4 + ex.vc.Size()
	size := frameHeaderSize + n*pairSize
	frame := slices.Grow(ex.frames[w][:0], size)[:size]
	ex.frames[w] = frame
	putFrameHeader(frame, magicBroadcast, step, n)
	off := frameHeaderSize
	for wi, c := range changed {
		c &= mirrored[wi]
		for c != 0 {
			v := wi<<6 + bits.TrailingZeros64(c)
			c &= c - 1
			binary.LittleEndian.PutUint32(frame[off:], uint32(v))
			ex.vc.Append(frame[off+4:off+4], masterVals[v])
			off += pairSize
		}
	}
}

// countBroadcast charges the superstep what the paper's CommCost counts and
// the local broadcast phase would have: one message per mirror of every
// changed vertex, whichever partition and worker holds it. The replica counts
// come from the pass that built the mirrored sets; the wire carries each
// vertex once per worker.
func (ex *exchanger[V, M]) countBroadcast(changed []uint64, masterVals []V, ss *pregel.SuperstepStats) {
	for wi, c := range changed {
		for c != 0 {
			v := int32(wi<<6 + bits.TrailingZeros64(c))
			c &= c - 1
			mirrors := int64(ex.replicas[v])
			ss.BroadcastMsgs += mirrors
			ss.BroadcastBytes += mirrors * int64(ex.prog.StateSize(masterVals[v]))
		}
	}
}

// roundTrip is worker w's share of a superstep's barrier: encode its frame,
// post it, and validate and file the reply while the other workers still
// scan. The frame buffer is free for the next superstep once the worker has
// answered: the answer follows the scan, which follows reading the whole
// frame.
func (ex *exchanger[V, M]) roundTrip(ctx context.Context, w, step int, changed []uint64, masterVals []V) error {
	ex.encodeBroadcast(w, step, changed, masterVals)
	url := ex.pool.urls[w]
	start := time.Now()
	reply, err := ex.pool.tr.Step(ctx, url, ex.runID, ex.frames[w], ex.replies[w])
	if err != nil {
		return err
	}
	ex.replies[w] = reply
	gotStep, err := parseReduceFrame(reply, ex.mc.Size(), ex.pg, w, len(ex.frames), ex.sections)
	ex.rtt[w] = time.Since(start)
	if err != nil {
		return fmt.Errorf("dist: worker %s reduce frame: %w", url, err)
	}
	if gotStep != step {
		return fmt.Errorf("dist: worker %s answered superstep %d, want %d", url, gotStep, step)
	}
	return nil
}

// mergeShard is the sh-th share of a superstep's merge, sharded by
// destination-vertex range as the local reduce phase is: every slab ascends
// by local index and LocalVerts ascends by global index, so a shard
// binary-searches its range in each partition's slab and walks the partitions
// ascending. Each vertex still merges p0, p1, … in order — float64 combines
// associate exactly as they do locally — and shards own disjoint vertices, so
// they merge concurrently, each counting what it delivered.
func (ex *exchanger[V, M]) mergeShard(sh int, deliver func(gidx int32, m M)) {
	nv, shards := ex.pg.G.NumVertices(), len(ex.rMsgs)
	chunk := (nv + shards - 1) / shards
	gLo, gHi := int32(min(sh*chunk, nv)), int32(min((sh+1)*chunk, nv))
	pairSize := 4 + ex.mc.Size()
	var msgs, bytes int64
	for p := range ex.sections {
		sec := &ex.sections[p]
		lv := ex.liveVerts[p]
		lLo, _ := slices.BinarySearch(lv, gLo)
		lHi, _ := slices.BinarySearch(lv, gHi)
		first := sort.Search(sec.n, func(i int) bool {
			return int(binary.LittleEndian.Uint32(sec.pairs[i*pairSize:])) >= lLo
		})
		for off := first * pairSize; off < len(sec.pairs); off += pairSize {
			local := int(binary.LittleEndian.Uint32(sec.pairs[off:]))
			if local >= lHi {
				break
			}
			m := ex.mc.Decode(sec.pairs[off+4 : off+pairSize])
			deliver(lv[local], m)
			msgs++
			bytes += int64(ex.prog.MsgSize(m))
		}
	}
	ex.rMsgs[sh], ex.rBytes[sh] = msgs, bytes
}

func (ex *exchanger[V, M]) Exchange(ctx context.Context, step int, changed []uint64, masterVals []V, deliver func(gidx int32, m M), ss *pregel.SuperstepStats) error {
	// One round trip per worker, all at once; waiting for the slowest is the
	// superstep barrier.
	clear(ex.sections)
	clear(ex.rtt)
	clear(ex.errs)
	W := len(ex.frames)
	cancelled := par.ForEach(ctx, W, W, func(w int) { ex.errs[w] = ex.roundTrip(ctx, w, step, changed, masterVals) })
	hBarrierSeconds.Observe(slices.Max(ex.rtt).Seconds())
	if err := firstError(ex.errs, cancelled); err != nil {
		return err
	}

	ex.countBroadcast(changed, masterVals, ss)
	ss.ComputePerPart = make([]float64, ex.pg.NumParts)
	for p := range ex.sections {
		sec := &ex.sections[p]
		if !sec.seen {
			return fmt.Errorf("dist: partition %d missing from reduce frames", p)
		}
		ss.EdgesScanned += sec.scanned
		ss.ActiveEdges += sec.visited
		ss.MsgsEmitted += sec.emitted
		ss.ComputePerPart[p] = sec.cost
	}

	shards := len(ex.rMsgs)
	if err := par.ForEach(ctx, shards, shards, func(sh int) { ex.mergeShard(sh, deliver) }); err != nil {
		return err
	}
	for sh := range ex.rMsgs {
		ss.ReduceMsgs += ex.rMsgs[sh]
		ss.ReduceBytes += ex.rBytes[sh]
	}
	cMsgsPre.Add(ss.MsgsEmitted)
	cMsgsPost.Add(ss.ReduceMsgs)
	return nil
}

// runDist executes one algorithm distributed: prepare shards and bind a run
// on every worker, concurrently, then let the engine drive supersteps
// through the exchanger. Any worker failure fails the whole run — the caller
// (Session) falls back to a local run, which is bit-identical anyway.
func runDist[V, M any](ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, prog pregel.Program[V, M], spec RunSpec, vc pregel.Codec[V], mc pregel.Codec[M]) ([]V, *pregel.RunStats, error) {
	W := pool.Size()
	if W == 0 {
		return nil, nil, errors.New("dist: pool has no workers")
	}
	sum := pg.TopologySum()
	spec.Run = pool.nextRunID()

	// Best-effort release of worker state, also after a failure — a run may
	// be bound on some workers when another refuses; a worker that is gone
	// or never bound it simply errors and is ignored.
	defer func() {
		finishCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		_ = pool.forEachWorker(finishCtx, func(w int) error { return pool.tr.FinishRun(finishCtx, pool.urls[w], spec.Run) })
	}()

	if err := pool.forEachWorker(ctx, func(w int) error {
		s := spec
		s.Shard = shardKey(pg.G, sum, pg.NumParts, w, W)
		return pool.startWorker(ctx, w, pg, s)
	}); err != nil {
		return nil, nil, err
	}

	ex := newExchanger(pool, pg, spec.Run, &prog, vc, mc)
	vals, stats, err := pregel.RunExchanged(ctx, pg, prog, ex)
	if err != nil {
		return nil, nil, err
	}
	cRuns.With("distributed").Inc()
	return vals, stats, nil
}

// NoteFallback records a run that was dispatched distributed but fell back
// to local execution; Session calls it when a cluster run fails.
func NoteFallback() { cRuns.With("fallback").Inc() }
