// Package par holds the process-wide default parallelism and the two
// bounded fan-out helpers built on it — the only place outside HTTP serving
// and the ordered ingest pipeline that starts goroutines.
//
// Every layer that fans work over goroutines — the partition build, the
// engine phases, the sharded hash assignment, restored topologies — accepts
// an explicit worker count and needs a fallback when the caller passes
// none (< 1). Before this package each call site called
// runtime.GOMAXPROCS(0) independently; routing them all through
// DefaultParallelism makes the session-level default
// (cutfit.SessionOptions.Parallelism, cutfitd -parallelism) the single
// override point: a caller that sets an explicit count wins, everything
// else degrades to one shared definition of "the machine's parallelism".
//
// ForEach is for items of uneven cost (partitions, artifacts, workers): it
// hands them out one at a time and stops when its context ends. Ranges is
// for a flat index space cut into equal contiguous pieces whose owner is
// part of the result (a shard's counters, a bitset word's one writer).
// Both return a panic in the work as an error instead of letting it kill
// the process from a goroutine.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism returns the worker count used when a caller does not
// set one explicitly: the process's GOMAXPROCS at call time (respecting
// runtime.GOMAXPROCS overrides, e.g. go test -cpu).
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines —
// the caller's among them, so one worker (or one index) spawns nothing — and
// returns when all have finished. Indices are handed out in ascending order,
// one at a time, so uneven items balance themselves. Handing out stops once
// ctx is done or an fn has panicked: items already started finish, the rest
// never run, and ForEach returns the panic as an error, else ctx's. It
// allocates once per call and once per goroutine started, never per index.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	l := &loop{ctx: ctx, n: int64(n), fn: fn}
	for w := 1; w < min(workers, n); w++ {
		l.wg.Add(1)
		go l.spawned()
	}
	l.work()
	l.wg.Wait()
	if err := l.panicked.Load(); err != nil {
		return *err
	}
	return ctx.Err()
}

// loop is the shared state of one ForEach call.
type loop struct {
	ctx      context.Context
	n        int64
	fn       func(i int)
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Pointer[error] // the first panic, as an error
}

func (l *loop) spawned() {
	defer l.wg.Done()
	l.work()
}

func (l *loop) work() {
	defer catch(&l.panicked)
	for l.ctx.Err() == nil && l.panicked.Load() == nil {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		l.fn(int(i))
	}
}

// Ranges cuts [0, n) into at most workers contiguous ranges of
// ceil(n / min(workers, n)) indices each — the last one possibly shorter,
// and fewer ranges than workers when the division leaves some empty — and
// runs fn(r, lo, hi) for the r-th range [lo, hi) on a goroutine of its own
// while the caller waits. Range r starts at r times the first range's
// length, so a caller that keeps per-range state sizes it by workers and
// indexes it by r. workers < 1 counts as 1. Every range runs to its end; a
// panic in any of them is returned as an error once all have finished.
func Ranges(workers, n int, fn func(r, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	most := max(min(workers, n), 1)
	chunk := (n + most - 1) / most
	var wg sync.WaitGroup
	var panicked atomic.Pointer[error]
	for r, lo := 0, 0; lo < n; r, lo = r+1, lo+chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer catch(&panicked)
			fn(r, lo, min(lo+chunk, n))
		}()
	}
	wg.Wait()
	if err := panicked.Load(); err != nil {
		return *err
	}
	return nil
}

// catch, deferred, records a panic of the goroutine it runs on as the first
// error in *first unless one is already there.
func catch(first *atomic.Pointer[error]) {
	if r := recover(); r != nil {
		err := fmt.Errorf("par: task panicked: %v", r)
		first.CompareAndSwap(nil, &err)
	}
}
