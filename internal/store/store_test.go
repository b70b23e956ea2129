package store

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cutfit/internal/algorithms"
	"cutfit/internal/gen"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// countingStrategy wraps a Strategy and counts Partition invocations — the
// oracle for the single-flight and cache-hit guarantees.
type countingStrategy struct {
	inner partition.Strategy
	name  string
	calls atomic.Int64
}

func (c *countingStrategy) Name() string { return c.name }
func (c *countingStrategy) Key() string  { return c.name }
func (c *countingStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	c.calls.Add(1)
	return c.inner.Partition(g, numParts)
}

func testGraph(t testing.TB, vertices, edges int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(vertices, edges, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSingleFlight proves the serving-core contract: K concurrent
// identical requests perform exactly one partitioning pass. A start
// barrier maximizes overlap; the strategy blocks until every goroutine has
// arrived at the store, so all K requests are provably concurrent.
func TestSingleFlight(t *testing.T) {
	const k = 16
	g := testGraph(t, 200, 800, 1)
	release := make(chan struct{})
	arrived := make(chan struct{}, k)
	blocking := &blockingStrategy{
		inner:   partition.EdgePartition2D(),
		release: release,
		arrived: arrived,
	}
	st := New(Config{})

	var wg sync.WaitGroup
	results := make([]*metrics.Result, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Metrics(g, blocking, 8)
		}(i)
	}
	// Wait until one goroutine is inside Partition (it signals arrived),
	// give the rest time to enqueue as waiters, then release.
	<-arrived
	release <- struct{}{}
	wg.Wait()

	if got := blocking.calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran Partition %d times, want exactly 1", k, got)
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d received a different Result pointer — not served from one flight", i)
		}
	}
	s := st.Stats()
	if s.Misses != 2 { // one assignment, one metrics derivation
		t.Fatalf("misses = %d, want 2 (assignment + metrics)", s.Misses)
	}
	// Every other request either blocked on the in-flight computation or
	// arrived after it published and hit the cache; scheduling decides the
	// split, but none may have computed.
	if s.Waits+s.Hits < k-1 {
		t.Fatalf("waits=%d hits=%d, want ≥ %d combined", s.Waits, s.Hits, k-1)
	}
}

// blockingStrategy blocks its first Partition call until released, and
// counts calls. Later calls (which would prove a single-flight failure)
// pass through immediately.
type blockingStrategy struct {
	inner   partition.Strategy
	release chan struct{}
	arrived chan struct{}
	calls   atomic.Int64
}

func (b *blockingStrategy) Name() string { return "blocking" }
func (b *blockingStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	if b.calls.Add(1) == 1 {
		b.arrived <- struct{}{}
		<-b.release
	}
	return b.inner.Partition(g, numParts)
}

// TestChainedArtifactsShareOneAssignment: Metrics, Built and Assignment for
// one tuple — in any order, repeatedly — cost exactly one strategy pass,
// and the built topology is the same shared instance on every call.
func TestChainedArtifactsShareOneAssignment(t *testing.T) {
	g := testGraph(t, 150, 600, 2)
	cs := &countingStrategy{inner: partition.EdgePartition2D(), name: "count2D"}
	st := New(Config{Build: pregel.BuildOptions{ReuseBuffers: true}})

	m1, err := st.Metrics(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg1, err := st.Built(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.Assignment(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg2, err := st.Built(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := st.Metrics(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("full artifact chain ran Partition %d times, want 1", got)
	}
	if pg1 != pg2 {
		t.Fatal("repeated Built returned different topologies")
	}
	if m1 != m2 {
		t.Fatal("repeated Metrics returned different results")
	}
	if &pg1.AssignOrder()[0] != &a.PIDs[0] {
		t.Fatal("built topology does not share the cached assignment's PID slice")
	}
	// The topology-derived metric set must agree with the assignment-derived
	// one (shared Finalize contract).
	if tm := pg1.Metrics(); tm.CommCost != m1.CommCost || tm.Cut != m1.Cut || tm.Balance != m1.Balance {
		t.Fatalf("topology metrics %+v differ from assignment metrics %+v", tm, m1)
	}
}

// TestDistinctKeysDistinctEntries: numParts, strategy key, and graph all
// separate cache entries; Hybrid variants with different thresholds must
// not alias (partition.KeyOf contract).
func TestDistinctKeysDistinctEntries(t *testing.T) {
	g := testGraph(t, 100, 400, 3)
	st := New(Config{})

	a25, err := st.Assignment(g, partition.Hybrid(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	a100, err := st.Assignment(g, partition.Hybrid(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	if a25 == a100 {
		t.Fatal("Hybrid(2) and Hybrid(100) shared one cache entry")
	}
	same := false
	for i := range a25.PIDs {
		if a25.PIDs[i] != a100.PIDs[i] {
			same = false
			break
		}
		same = true
	}
	if same {
		t.Log("thresholds produced identical assignments on this graph (harmless, but weakens the aliasing check)")
	}

	b4, err := st.Assignment(g, partition.EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := st.Assignment(g, partition.EdgePartition2D(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if b4 == b8 {
		t.Fatal("different numParts shared one cache entry")
	}
}

// TestLRUEviction: a byte budget sized for two assignments evicts the
// least-recently-used when a third arrives, and a re-request recomputes.
func TestLRUEviction(t *testing.T) {
	g := testGraph(t, 100, 500, 4)
	mk := func(name string) *countingStrategy {
		return &countingStrategy{inner: partition.RandomVertexCut(), name: name}
	}
	s1, s2, s3 := mk("s1"), mk("s2"), mk("s3")
	// The first assignment of a graph is charged the graph too; every
	// further one only its own PIDs and histogram.
	probe := New(Config{})
	if _, err := probe.Assignment(g, mk("p1"), 4); err != nil {
		t.Fatal(err)
	}
	first := probe.Stats().Bytes
	if _, err := probe.Assignment(g, mk("p2"), 4); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().Bytes - first
	st := New(Config{MaxBytes: first + one + one/2})

	for _, s := range []*countingStrategy{s1, s2, s3} {
		if _, err := st.Assignment(g, s, 4); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Evictions == 0 {
		t.Fatalf("no evictions with budget %d and three %d-byte entries", stats.MaxBytes, one)
	}
	if stats.Bytes > stats.MaxBytes {
		t.Fatalf("cache holds %d bytes over budget %d", stats.Bytes, stats.MaxBytes)
	}
	// s1 was least recently used → evicted; re-requesting it recomputes.
	if _, err := st.Assignment(g, s1, 4); err != nil {
		t.Fatal(err)
	}
	if got := s1.calls.Load(); got != 2 {
		t.Fatalf("evicted entry recomputed %d times, want 2 total calls", got)
	}
	// s3 is still resident.
	if _, err := st.Assignment(g, s3, 4); err != nil {
		t.Fatal(err)
	}
	if got := s3.calls.Load(); got != 1 {
		t.Fatalf("resident entry recomputed: %d calls, want 1", got)
	}
}

// TestErrorsAreNotCached: a failing strategy returns its error to every
// caller but leaves the key uncached, so a later (fixed) request computes.
func TestErrorsAreNotCached(t *testing.T) {
	g := testGraph(t, 50, 200, 5)
	boom := errors.New("boom")
	fail := true
	s := &flakyStrategy{inner: partition.RandomVertexCut(), err: boom, failing: &fail}
	st := New(Config{})
	if _, err := st.Assignment(g, s, 4); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	if _, err := st.Assignment(g, s, 4); err != nil {
		t.Fatalf("recovered strategy still failing: %v", err)
	}
	if st.Stats().Entries != 1 {
		t.Fatalf("entries = %d, want 1 (error result must not be cached)", st.Stats().Entries)
	}
}

// TestPanickingBuildReleasesItsKey: a strategy that panics mid-build hands
// the panic to its caller, fails the request waiting on the same flight with
// an error, and leaves the key free, so the next request rebuilds instead of
// parking on a flight that never lands.
func TestPanickingBuildReleasesItsKey(t *testing.T) {
	g := testGraph(t, 50, 200, 7)
	s := &panickyStrategy{inner: partition.RandomVertexCut(), arrived: make(chan struct{}), release: make(chan struct{})}
	st := New(Config{})

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		st.Assignment(g, s, 4)
	}()
	<-s.arrived
	waiter := make(chan error, 1)
	go func() {
		_, err := st.Assignment(g, s, 4)
		waiter <- err
	}()
	for st.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(s.release)

	const bound = 5 * time.Second
	select {
	case r := <-leader:
		if r == nil {
			t.Fatal("the strategy's panic did not reach the building caller")
		}
	case <-time.After(bound):
		t.Fatal("the building caller never returned")
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("a waiter on the panicked flight got no error")
		}
	case <-time.After(bound):
		t.Fatal("a waiter on the panicked flight is still parked")
	}

	next := make(chan error, 1)
	go func() {
		_, err := st.Assignment(g, s, 4)
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Fatalf("rebuild after the panic: %v", err)
		}
	case <-time.After(bound):
		t.Fatal("the next request on the key parked behind the panicked build")
	}
	if got := s.calls.Load(); got != 2 {
		t.Fatalf("strategy ran %d times, want 2 (the panicked build and the rebuild)", got)
	}
}

// panickyStrategy's first Partition call signals arrived, waits for release
// and panics; later calls pass through.
type panickyStrategy struct {
	inner            partition.Strategy
	arrived, release chan struct{}
	calls            atomic.Int64
}

func (p *panickyStrategy) Name() string { return "panicky" }
func (p *panickyStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	if p.calls.Add(1) == 1 {
		close(p.arrived)
		<-p.release
		panic("panicky strategy")
	}
	return p.inner.Partition(g, numParts)
}

type flakyStrategy struct {
	inner   partition.Strategy
	err     error
	failing *bool
}

func (f *flakyStrategy) Name() string { return "flaky" }
func (f *flakyStrategy) Partition(g *graph.Graph, numParts int) ([]partition.PID, error) {
	if *f.failing {
		return nil, f.err
	}
	return f.inner.Partition(g, numParts)
}

// TestInvalidateGraph drops all of one graph's artifacts and nothing else.
func TestInvalidateGraph(t *testing.T) {
	g1 := testGraph(t, 50, 200, 7)
	g2 := testGraph(t, 50, 200, 8)
	cs1 := &countingStrategy{inner: partition.RandomVertexCut(), name: "g1s"}
	cs2 := &countingStrategy{inner: partition.RandomVertexCut(), name: "g2s"}
	st := New(Config{})
	if _, err := st.Metrics(g1, cs1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Metrics(g2, cs2, 4); err != nil {
		t.Fatal(err)
	}
	st.InvalidateGraph(g1)
	if _, err := st.Metrics(g1, cs1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Metrics(g2, cs2, 4); err != nil {
		t.Fatal(err)
	}
	if got := cs1.calls.Load(); got != 2 {
		t.Fatalf("invalidated graph recomputed %d times, want 2", got)
	}
	if got := cs2.calls.Load(); got != 1 {
		t.Fatalf("unrelated graph recomputed: %d calls, want 1", got)
	}
}

// TestRefreshCostEvictsOverBudget: a growth re-price (a run building a
// topology's frontier index and parking its scratch, Extend moving retained
// streaming state between assignments) must run the eviction pass itself. A
// graph served only through delta derivations may never insert again, so
// deferring eviction to "the next insert" can leave the cache over its byte
// budget indefinitely.
func TestRefreshCostEvictsOverBudget(t *testing.T) {
	s := partition.EdgePartition2D()
	graphs := []*graph.Graph{testGraph(t, 200, 2000, 1), testGraph(t, 200, 2000, 2), testGraph(t, 200, 2000, 3)}
	fill := func(st *Store) *pregel.PartitionedGraph {
		var pg *pregel.PartitionedGraph
		for _, g := range graphs {
			var err error
			if pg, err = st.Built(g, s, 4); err != nil {
				t.Fatal(err)
			}
		}
		return pg
	}
	probe := New(Config{})
	fill(probe)
	budget := probe.Stats().Bytes + 64

	st := New(Config{MaxBytes: budget, Build: pregel.BuildOptions{ReuseBuffers: true}})
	pg := fill(st)
	if ev := st.Stats().Evictions; ev != 0 {
		t.Fatalf("setup evicted %d entries inside a budget sized to fit", ev)
	}
	before := pg.MemoryFootprint()
	if _, _, err := algorithms.ConnectedComponents(context.Background(), pg, 0); err != nil {
		t.Fatal(err)
	}
	if pg.MemoryFootprint() <= before {
		t.Fatal("cc built no frontier index: the topology did not grow")
	}
	// Re-price the most recent entry past the budget: the eviction pass must
	// run now, not on a next insert that may never come.
	last := graphs[len(graphs)-1]
	st.RepriceBuilt(last, s, 4)
	stats := st.Stats()
	if stats.Bytes > budget {
		t.Fatalf("cache holds %d bytes after the re-price, budget is %d", stats.Bytes, budget)
	}
	if stats.Evictions == 0 {
		t.Fatal("over-budget re-price evicted nothing")
	}
	if _, ok := st.peek(st.keyFor(last, s, 4, kindBuilt)); !ok {
		t.Fatal("the re-priced (most recently used) entry was evicted")
	}
}

// TestRecordDeltaSkipsCompacted: a compacted generation rewrites dense edge
// positions, so recording its delta would let derivations patch against a
// misaligned prefix. The record must be dropped, severing the chain.
func TestRecordDeltaSkipsCompacted(t *testing.T) {
	st := New(Config{})
	g := testGraph(t, 50, 200, 7)
	ng, d := g.Grow([]graph.Edge{{Src: 1, Dst: 2}})
	d.Compacted = true
	st.RecordDelta(d)
	st.mu.Lock()
	_, ok := st.deltas[ng]
	st.mu.Unlock()
	if ok {
		t.Fatal("compacted delta was recorded")
	}
}
