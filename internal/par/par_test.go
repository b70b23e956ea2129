package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEveryIndexOnce on one goroutine, on as many as there are
// indices, and on more.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, 200} {
			visits := make([]atomic.Int32, n)
			if err := ForEach(context.Background(), workers, n, func(i int) { visits[i].Add(1) }); err != nil {
				t.Fatal(err)
			}
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForEachStopsWhenCancelled: once the context is done nothing further is
// handed out — at most the item each goroutine had in hand finishes.
func TestForEachStopsWhenCancelled(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := ForEach(ctx, workers, 1000, func(int) {
		cancel()
		ran.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 0 || got > workers {
		t.Fatalf("%d items ran after the first cancelled, want at most one per goroutine (%d)", got, workers)
	}
}

// TestForEachReturnsPanics: a panicking item becomes ForEach's error, on the
// caller's goroutine or a spawned one, and stops the hand-out.
func TestForEachReturnsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(context.Background(), workers, 1000, func(i int) {
			ran.Add(1)
			panic("boom")
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: err %v, want the panic", workers, err)
		}
		if got := ran.Load(); got > int32(workers) {
			t.Fatalf("workers=%d: %d items ran after the first panicked", workers, got)
		}
	}
}

// TestRangesCoverInOrder: every index lands in exactly one range, the ranges
// are contiguous and ascending with r counting them, range r starts at r
// times the first range's length, and there are at most workers of them —
// for n = 0, workers < 1, workers > n and divisions that leave fewer ranges
// than workers (5 over 4 is 2+2+1).
func TestRangesCoverInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 4, 200} {
			type span struct{ lo, hi int }
			spans := make([]span, max(workers, 1))
			ran := make([]atomic.Int32, max(workers, 1))
			visits := make([]atomic.Int32, n)
			if err := Ranges(workers, n, func(r, lo, hi int) {
				ran[r].Add(1)
				spans[r] = span{lo, hi}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
			next := 0
			for r := range spans {
				if ran[r].Load() == 0 {
					// Unused slots are a suffix: r counts the ranges.
					for q := r; q < len(spans); q++ {
						if ran[q].Load() != 0 {
							t.Fatalf("n=%d workers=%d: range %d ran but %d did not", n, workers, q, r)
						}
					}
					break
				}
				if ran[r].Load() != 1 || spans[r].lo != next || spans[r].hi <= spans[r].lo || spans[r].lo != r*spans[0].hi {
					t.Fatalf("n=%d workers=%d: range %d is %+v (ran %d times), want one non-empty range from %d, r times the first's length", n, workers, r, spans[r], ran[r].Load(), next)
				}
				next = spans[r].hi
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: ranges end at %d", n, workers, next)
			}
		}
	}
}

// TestRangesReturnsPanics: a panic on any one range — the first, a middle
// one, the last — becomes Ranges' error, and the other ranges still finish.
func TestRangesReturnsPanics(t *testing.T) {
	const workers, n = 4, 100
	for bad := range workers {
		var finished atomic.Int32
		err := Ranges(workers, n, func(r, lo, hi int) {
			if r == bad {
				panic("boom")
			}
			finished.Add(1)
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("range %d: err %v, want the panic", bad, err)
		}
		if got := finished.Load(); got != workers-1 {
			t.Fatalf("range %d panicked: %d other ranges finished, want %d", bad, got, workers-1)
		}
	}
}
