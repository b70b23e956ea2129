package dist

import (
	"context"
	"testing"
	"time"

	"cutfit/internal/algorithms"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// TestAlternatingGraphsStayResident runs two unrelated graphs turn about on
// one cluster. Workers keep maxShards generations, so the coordinator must
// remember more than the last key per worker: each graph ships once per
// worker (4 full containers), and the four later runs ship nothing.
func TestAlternatingGraphsStayResident(t *testing.T) {
	ctx := context.Background()
	pool, _ := startCluster(t, 2)
	graphs := []*pregel.PartitionedGraph{
		mustPartition(t, randomGraph(31, 60, 300), partition.RandomVertexCut(), 4),
		mustPartition(t, hubAndChain(9, 14), partition.RandomVertexCut(), 5),
	}
	fullBefore := cShards.With("full").Value()
	reusedBefore := cShards.With("reused").Value()
	for round := 0; round < 3; round++ {
		for i, pg := range graphs {
			want, _, err := algorithms.PageRank(ctx, pg, 3, algorithms.DefaultResetProb)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := runPageRank(ctx, pool, pg, 3)
			if err != nil {
				t.Fatalf("round %d graph %d: %v", round, i, err)
			}
			assertBitEqualF64(t, "alternating", got, want)
		}
	}
	if got := cShards.With("full").Value() - fullBefore; got != 4 {
		t.Errorf("six alternating runs shipped %d full shards, want 4", got)
	}
	if got := cShards.With("reused").Value() - reusedBefore; got != 8 {
		t.Errorf("six alternating runs reused %d shards, want 8", got)
	}
}

// TestWorkerCacheBound: the coordinator forgets keys in the order the worker
// evicts them, so its view never outgrows what the worker can hold.
func TestWorkerCacheBound(t *testing.T) {
	var wc workerCache
	for i := 0; i < maxShards+3; i++ {
		wc.sent(string(rune('a' + i)))
	}
	if len(wc.keys) != maxShards || wc.keys[0] != "d" || wc.keys[maxShards-1] != string(rune('a'+maxShards+2)) {
		t.Fatalf("after %d shards the cache holds %q, want the newest %d", maxShards+3, wc.keys, maxShards)
	}
}

// gatedTransport holds back InstallShard for one worker until released and
// reports every install that completes.
type gatedTransport struct {
	Transport
	gatedURL  string
	release   chan struct{}
	installed chan string // buffered for every worker
}

func (g *gatedTransport) InstallShard(ctx context.Context, url, key string, payload []byte) error {
	if url == g.gatedURL {
		<-g.release
	}
	err := g.Transport.InstallShard(ctx, url, key, payload)
	g.installed <- url
	return err
}

// TestSlowWorkerDoesNotDelayShipping: shards ship to every worker at once,
// each under its own cache lock. While worker 0's install is held back, the
// other two receive theirs; the run completes, with the local engine's bits,
// once worker 0 is let through.
func TestSlowWorkerDoesNotDelayShipping(t *testing.T) {
	ctx := context.Background()
	pool, _ := startCluster(t, 3)
	gate := &gatedTransport{
		Transport: pool.tr,
		gatedURL:  pool.urls[0],
		release:   make(chan struct{}),
		installed: make(chan string, 3),
	}
	pool.tr = gate
	pg := mustPartition(t, randomGraph(17, 60, 300), partition.RandomVertexCut(), 6)
	want, _, err := algorithms.PageRank(ctx, pg, 3, algorithms.DefaultResetProb)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		vals []float64
		err  error
	}
	done := make(chan result, 1)
	go func() {
		vals, _, err := runPageRank(ctx, pool, pg, 3)
		done <- result{vals, err}
	}()
	released := false
	defer func() {
		if !released {
			close(gate.release) // a failed test must not leave the run parked
		}
	}()
	for i := 0; i < 2; i++ {
		select {
		case url := <-gate.installed:
			if url == gate.gatedURL {
				t.Fatal("the gated worker's install completed before its release")
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of 2 workers shipped to while a third is slow: shipping still waits its turn", i)
		}
	}
	close(gate.release)
	released = true
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	assertBitEqualF64(t, "after the slow worker", res.vals, want)
}
