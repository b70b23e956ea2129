package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// prepareWorker ensures worker wIdx holds the shard for (pg, key): nothing
// if the cache says it was sent and not since pushed out (a stale cache is
// healed by RunStart's 404 → full re-ship), a delta patch when the newest
// shard sent is a compatible base, else a full container. Caller holds
// pool.mu.
func (p *Pool) prepareWorker(ctx context.Context, wIdx int, key string, pg *pregel.PartitionedGraph) error {
	url := p.urls[wIdx]
	wc := p.cache[url]
	if wc == nil {
		wc = &workerCache{}
		p.cache[url] = wc
	}
	if slices.Contains(wc.keys, key) {
		cShards.With("reused").Inc()
		return nil
	}
	if wc.lastPG != nil {
		baseKey := wc.keys[len(wc.keys)-1]
		if sp, ok := diffShard(wc.lastPG, pg, baseKey, wIdx, len(p.urls)); ok {
			err := p.tr.InstallDelta(ctx, url, key, baseKey, snap.EncodeShard(sp))
			if err == nil {
				cShards.With("delta").Inc()
				wc.sent(key, pg)
				return nil
			}
			if !errors.Is(err, ErrBaseMissing) {
				return err
			}
			// Base evicted on the worker: fall through to a full ship.
		}
	}
	full := snap.EncodeShard(extractShard(pg, wIdx, len(p.urls)))
	if err := p.tr.InstallShard(ctx, url, key, full); err != nil {
		return err
	}
	cShards.With("full").Inc()
	wc.sent(key, pg)
	return nil
}

// exchanger ships the engine's mirror phases over the pool: broadcast
// frames out to every worker, one barrier wait, reduce frames merged back
// in ascending partition order.
type exchanger[V, M any] struct {
	pool  *Pool
	pg    *pregel.PartitionedGraph
	runID string
	prog  *pregel.Program[V, M]
	vc    pregel.Codec[V]
	mc    pregel.Codec[M]

	// Broadcast scratch, reused across supersteps: each partition's pair
	// count, the unwritten rest of its slab inside its worker's frame, the
	// frames themselves and one encoded value. replies holds each worker's
	// reduce frame, read into the same storage every superstep.
	counts  []int
	slabs   [][]byte
	frames  [][]byte
	val     []byte
	replies [][]byte
}

func newExchanger[V, M any](pool *Pool, pg *pregel.PartitionedGraph, runID string, prog *pregel.Program[V, M], vc pregel.Codec[V], mc pregel.Codec[M]) *exchanger[V, M] {
	return &exchanger[V, M]{
		pool:    pool,
		pg:      pg,
		runID:   runID,
		prog:    prog,
		vc:      vc,
		mc:      mc,
		counts:  make([]int, pg.NumParts),
		slabs:   make([][]byte, pg.NumParts),
		frames:  make([][]byte, pool.Size()),
		replies: make([][]byte, pool.Size()),
	}
}

// forEachChanged calls fn with every set bit of the frontier, ascending.
func forEachChanged(changed []uint64, fn func(v int32)) {
	for wi, w := range changed {
		base := int32(wi << 6)
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// encodeBroadcast fills one broadcast frame per worker (only its owned
// partitions with changed mirrors) straight from the routing CSR: a counting
// walk sizes every slab, the frames are laid out, and a second walk encodes
// each changed value once and copies it into the slab of every mirror. The
// frontier is walked ascending and LocalVerts is sorted by global index, so
// each slab ends up ascending by local index.
func (ex *exchanger[V, M]) encodeBroadcast(step int, changed []uint64, masterVals []V, ss *pregel.SuperstepStats) {
	pg, numParts, W := ex.pg, ex.pg.NumParts, len(ex.frames)
	pairSize := 4 + ex.vc.Size()
	clear(ex.counts)
	forEachChanged(changed, func(v int32) {
		for _, ref := range pg.MirrorsOf(v) {
			ex.counts[ref.Part]++
		}
	})
	for w := 0; w < W; w++ {
		size, sections := frameHeaderSize, 0
		for p := w; p < numParts; p += W {
			if n := ex.counts[p]; n > 0 {
				size += partHeaderSize + n*pairSize
				sections++
			}
		}
		frame := slices.Grow(ex.frames[w][:0], size)[:size]
		ex.frames[w] = frame
		putFrameHeader(frame, magicBroadcast, step, sections)
		off := frameHeaderSize
		for p := w; p < numParts; p += W {
			if n := ex.counts[p]; n > 0 {
				binary.LittleEndian.PutUint32(frame[off:], uint32(p))
				binary.LittleEndian.PutUint32(frame[off+4:], uint32(n))
				off += partHeaderSize
				ex.slabs[p] = frame[off : off+n*pairSize]
				off += n * pairSize
			}
		}
	}
	forEachChanged(changed, func(v int32) {
		val := masterVals[v]
		refs := pg.MirrorsOf(v)
		ss.BroadcastMsgs += int64(len(refs))
		ss.BroadcastBytes += int64(len(refs)) * int64(ex.prog.StateSize(val))
		ex.val = ex.vc.Append(ex.val[:0], val)
		for _, ref := range refs {
			slab := ex.slabs[ref.Part]
			binary.LittleEndian.PutUint32(slab, uint32(ref.Local))
			copy(slab[4:pairSize], ex.val)
			ex.slabs[ref.Part] = slab[pairSize:]
		}
	})
}

func (ex *exchanger[V, M]) Exchange(ctx context.Context, step int, changed []uint64, masterVals []V, deliver func(gidx int32, m M), ss *pregel.SuperstepStats) error {
	numParts := ex.pg.NumParts
	W := ex.pool.Size()
	ex.encodeBroadcast(step, changed, masterVals, ss)

	// One frame per worker, posted concurrently; waiting for the slowest
	// worker is the superstep barrier. A frame buffer is free for the next
	// superstep once its worker has answered: the answer follows the scan,
	// which follows reading the whole frame.
	errs := make([]error, W)
	barrierStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex.replies[w], errs[w] = ex.pool.tr.Step(ctx, ex.pool.urls[w], ex.runID, ex.frames[w], ex.replies[w])
		}()
	}
	wg.Wait()
	hBarrierSeconds.Observe(time.Since(barrierStart).Seconds())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Decode reduce frames and index partitions; every partition must
	// report exactly once.
	entries := make([]*framePart, numParts)
	for w := 0; w < W; w++ {
		gotStep, parts, err := parseFrame(ex.replies[w], magicReduce, ex.mc.Size(), true)
		if err != nil {
			return fmt.Errorf("dist: worker %s reduce frame: %w", ex.pool.urls[w], err)
		}
		if gotStep != step {
			return fmt.Errorf("dist: worker %s answered superstep %d, want %d", ex.pool.urls[w], gotStep, step)
		}
		for i := range parts {
			fp := &parts[i]
			if fp.part < 0 || fp.part >= numParts || workerOf(fp.part, W) != w {
				return fmt.Errorf("dist: worker %s reported partition %d it does not own", ex.pool.urls[w], fp.part)
			}
			if entries[fp.part] != nil {
				return fmt.Errorf("dist: partition %d reported twice", fp.part)
			}
			entries[fp.part] = fp
		}
	}

	// Merge in ascending partition order — per destination vertex that is
	// exactly the local reduce phase's ascending-partition merge order, so
	// float64 combines associate identically.
	ss.ComputePerPart = make([]float64, numParts)
	pairSize := 4 + ex.mc.Size()
	var nPost int64
	for p := 0; p < numParts; p++ {
		e := entries[p]
		if e == nil {
			return fmt.Errorf("dist: partition %d missing from reduce frames", p)
		}
		ss.EdgesScanned += e.scanned
		ss.ActiveEdges += e.visited
		ss.MsgsEmitted += e.emitted
		ss.ComputePerPart[p] = e.cost
		lv := ex.pg.Parts[p].LocalVerts
		for off := 0; off < len(e.pairs); off += pairSize {
			local := binary.LittleEndian.Uint32(e.pairs[off:])
			if int(local) >= len(lv) {
				return fmt.Errorf("dist: partition %d reduce pair local %d out of range [0,%d)", p, local, len(lv))
			}
			deliver(lv[local], ex.mc.Decode(e.pairs[off+4:]))
			nPost++
		}
	}
	cMsgsPre.Add(ss.MsgsEmitted)
	cMsgsPost.Add(nPost)
	return nil
}

// runDist executes one algorithm distributed: prepare shards on every
// worker, bind a run, then let the engine drive supersteps through the
// exchanger. Any worker failure fails the whole run — the caller
// (Session) falls back to a local run, which is bit-identical anyway.
func runDist[V, M any](ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, prog pregel.Program[V, M], spec RunSpec, vc pregel.Codec[V], mc pregel.Codec[M]) ([]V, *pregel.RunStats, error) {
	W := pool.Size()
	if W == 0 {
		return nil, nil, errors.New("dist: pool has no workers")
	}
	sum := pg.TopologySum()
	keys := make([]string, W)

	pool.mu.Lock()
	for w := 0; w < W; w++ {
		keys[w] = shardKey(pg.G, sum, pg.NumParts, w, W)
		if err := pool.prepareWorker(ctx, w, keys[w], pg); err != nil {
			pool.mu.Unlock()
			return nil, nil, err
		}
	}
	pool.mu.Unlock()

	runID := pool.nextRunID()
	for w := 0; w < W; w++ {
		s := spec
		s.Run = runID
		s.Shard = keys[w]
		err := pool.tr.StartRun(ctx, pool.urls[w], s)
		if errors.Is(err, ErrShardMissing) {
			// The worker evicted the shard (or restarted) since the cache
			// last shipped it: re-ship a full container and retry once.
			full := snap.EncodeShard(extractShard(pg, w, W))
			if err = pool.tr.InstallShard(ctx, pool.urls[w], keys[w], full); err == nil {
				cShards.With("full").Inc()
				err = pool.tr.StartRun(ctx, pool.urls[w], s)
			}
		}
		if err != nil {
			return nil, nil, err
		}
	}

	ex := newExchanger(pool, pg, runID, &prog, vc, mc)
	vals, stats, err := pregel.RunExchanged(ctx, pg, prog, ex)

	// Best-effort release of worker state, even after failure; a worker
	// that is gone simply errors and is ignored.
	finishCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	for w := 0; w < W; w++ {
		_ = pool.tr.FinishRun(finishCtx, pool.urls[w], runID)
	}

	if err != nil {
		return nil, nil, err
	}
	cRuns.With("distributed").Inc()
	return vals, stats, nil
}

// NoteFallback records a run that was dispatched distributed but fell back
// to local execution; Session calls it when a cluster run fails.
func NoteFallback() { cRuns.With("fallback").Inc() }
