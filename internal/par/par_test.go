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
