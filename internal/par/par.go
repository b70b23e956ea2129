// Package par holds the process-wide default parallelism and the one
// bounded fan-out helper built on it.
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
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("par: task panicked: %v", r)
			l.panicked.CompareAndSwap(nil, &err)
		}
	}()
	for l.ctx.Err() == nil && l.panicked.Load() == nil {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		l.fn(int(i))
	}
}
