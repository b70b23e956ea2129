package cutfit_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
)

// sessionTestGraph builds a deterministic medium graph for the concurrency
// tests: a ring with chords so PageRank/CC have non-trivial structure.
func sessionTestGraph(t testing.TB) *cutfit.Graph {
	t.Helper()
	var sb strings.Builder
	const n = 400
	for i := 0; i < n; i++ {
		writeEdge(&sb, i, (i+1)%n)
		writeEdge(&sb, i, (i+7)%n)
		if i%3 == 0 {
			writeEdge(&sb, i, (i*13+5)%n)
		}
	}
	g, err := cutfit.LoadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func writeEdge(sb *strings.Builder, a, b int) {
	sb.WriteString(itoa(a))
	sb.WriteByte(' ')
	sb.WriteString(itoa(b))
	sb.WriteByte('\n')
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// countingSessionStrategy counts Partition invocations through the public
// API — the oracle for the Session single-flight guarantee.
type countingSessionStrategy struct {
	inner cutfit.Strategy
	calls atomic.Int64
}

func (c *countingSessionStrategy) Name() string { return "counting-" + c.inner.Name() }
func (c *countingSessionStrategy) Key() string  { return c.Name() }
func (c *countingSessionStrategy) Partition(g *cutfit.Graph, numParts int) ([]cutfit.PID, error) {
	c.calls.Add(1)
	return c.inner.Partition(g, numParts)
}

// TestSessionSingleFlight: K concurrent identical requests through one
// Session — mixed Measure, Partition and Run, all needing the same
// assignment — perform exactly one partitioning pass and one topology
// build.
func TestSessionSingleFlight(t *testing.T) {
	g := sessionTestGraph(t)
	cs := &countingSessionStrategy{inner: cutfit.EdgePartition2D()}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	ctx := context.Background()

	const k = 12
	var wg sync.WaitGroup
	errs := make([]error, k)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			var err error
			switch i % 3 {
			case 0:
				_, err = se.Measure(g, cs, 8)
			case 1:
				_, err = se.Partition(g, cs, 8)
			default:
				_, err = se.Run(ctx, g, cs, 8, "pagerank", 5)
			}
			errs[i] = err
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("%d concurrent requests ran Partition %d times, want exactly 1", k, got)
	}
	// The build is also deduplicated: every Partition call must return the
	// same shared topology.
	pg1, err := se.Partition(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg2, err := se.Partition(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pg1 != pg2 {
		t.Fatal("repeated Partition returned distinct topologies")
	}
}

// TestSessionConcurrentSelectsAssignOnce: eight goroutines selecting over
// the same candidates on one caching Session — each of them fanning its
// candidates out in turn — run every candidate's Partition exactly once and
// compute twelve artifacts, an assignment and a metric set per candidate;
// everything else is a hit or a wait on the flight that computes. All eight
// get the same selection.
func TestSessionConcurrentSelectsAssignOnce(t *testing.T) {
	g := sessionTestGraph(t)
	var counted []*countingSessionStrategy
	var candidates []cutfit.Strategy
	for _, s := range cutfit.Strategies() {
		cs := &countingSessionStrategy{inner: s}
		counted = append(counted, cs)
		candidates = append(candidates, cs)
	}
	se := cutfit.NewSession(cutfit.SessionOptions{Parallelism: 8})
	const k, parts = 8, 8
	sels := make([]*cutfit.Selection, k)
	errs := make([]error, k)
	var wg, start sync.WaitGroup
	start.Add(1)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			sels[i], errs[i] = se.Select(g, candidates, parts, cutfit.ProfilePageRank)
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := range sels {
		if errs[i] != nil {
			t.Fatalf("select %d: %v", i, errs[i])
		}
		if sels[i].Strategy != sels[0].Strategy || sels[i].Assignment != sels[0].Assignment ||
			!reflect.DeepEqual(sels[i].Results, sels[0].Results) {
			t.Fatalf("select %d chose %s, select 0 %s: not the same shared selection", i, sels[i].Strategy.Name(), sels[0].Strategy.Name())
		}
	}
	for _, cs := range counted {
		if got := cs.calls.Load(); got != 1 {
			t.Errorf("%s: Partition ran %d times under %d concurrent selects, want 1", cs.Name(), got, k)
		}
	}
	if st := se.CacheStats(); st.Misses != int64(2*len(candidates)) {
		t.Errorf("%d store misses, want %d: one assignment and one metric set per candidate", st.Misses, 2*len(candidates))
	}
}

// TestSessionConcurrentMixedWorkload drives one Session from many
// goroutines with a mixed Select/Measure/Run workload over two program
// types and asserts every result is bit-identical to the serial answers
// computed up front. Run with -race this is the end-to-end serving-core
// guarantee.
func TestSessionConcurrentMixedWorkload(t *testing.T) {
	g := sessionTestGraph(t)
	se := cutfit.NewSession(cutfit.SessionOptions{})
	ctx := context.Background()
	const parts = 8

	// Serial ground truth, computed one-shot (no session, no cache).
	wantSel, err := cutfit.Select(g, cutfit.Strategies(), parts, cutfit.ProfilePageRank)
	if err != nil {
		t.Fatal(err)
	}
	pgSerial, err := cutfit.Partition(g, cutfit.EdgePartition2D(), parts)
	if err != nil {
		t.Fatal(err)
	}
	wantRanks, _, err := cutfit.RunPageRank(ctx, pgSerial, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, _, err := cutfit.RunConnectedComponents(ctx, pgSerial, 0)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, workers)
	mismatch := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				switch w % 4 {
				case 0: // empirical selection
					sel, err := se.Select(g, cutfit.Strategies(), parts, cutfit.ProfilePageRank)
					if err != nil {
						errs[w] = err
						return
					}
					if sel.Strategy.Name() != wantSel.Strategy.Name() {
						mismatch[w] = "selection winner diverged"
						return
					}
					for name, m := range wantSel.Results {
						if got := sel.Results[name]; got == nil || got.CommCost != m.CommCost || got.Balance != m.Balance {
							mismatch[w] = "selection metrics diverged for " + name
							return
						}
					}
				case 1: // pagerank on the shared cached topology
					pg, err := se.Partition(g, cutfit.EdgePartition2D(), parts)
					if err != nil {
						errs[w] = err
						return
					}
					ranks, _, err := cutfit.RunPageRank(ctx, pg, 5)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(ranks, wantRanks) {
						mismatch[w] = "pagerank ranks diverged from serial run"
						return
					}
				case 2: // cc: a second program type drawing from its own scratch pool
					pg, err := se.Partition(g, cutfit.EdgePartition2D(), parts)
					if err != nil {
						errs[w] = err
						return
					}
					labels, _, err := cutfit.RunConnectedComponents(ctx, pg, 0)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(labels, wantLabels) {
						mismatch[w] = "cc labels diverged from serial run"
						return
					}
				default: // the report-producing Run path
					rep, err := se.Run(ctx, g, cutfit.EdgePartition2D(), parts, "pagerank", 5)
					if err != nil {
						errs[w] = err
						return
					}
					if rep.Supersteps != 5 || len(rep.TopRanks) != 5 {
						mismatch[w] = "run report malformed"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if mismatch[w] != "" {
			t.Fatalf("worker %d: %s", w, mismatch[w])
		}
	}

	stats := se.CacheStats()
	if stats.Hits == 0 {
		t.Fatalf("concurrent workload produced no cache hits: %+v", stats)
	}
	// 9 strategy keys at most (6 paper strategies × {assignment, metrics}
	// + 2D's build): everything else must have been deduplicated or hit.
	if maxMisses := int64(len(cutfit.Strategies())*2 + 1); stats.Misses > maxMisses {
		t.Fatalf("misses = %d, want ≤ %d (identical requests recomputed)", stats.Misses, maxMisses)
	}
}

// TestSelectKeepsHybridVariantsDistinct: two parameterized variants of one
// strategy name must produce two ranking rows, with exactly the winning
// variant flagged (the partition.Keyer contract through Selection).
func TestSelectKeepsHybridVariantsDistinct(t *testing.T) {
	g := sessionTestGraph(t)
	se := cutfit.NewSession(cutfit.SessionOptions{})
	cands := []cutfit.Strategy{cutfit.HybridCut(2), cutfit.HybridCut(100)}
	sel, err := se.Select(g, cands, 8, cutfit.ProfilePageRank)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Results) != 2 {
		t.Fatalf("Selection.Results has %d entries for 2 Hybrid variants, want 2", len(sel.Results))
	}
	rows, err := cutfit.RankFromSelection(sel, "CommCost")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("ranking has %d rows, want 2", len(rows))
	}
	selected := 0
	for _, r := range rows {
		if r.Selected {
			selected++
		}
	}
	if selected != 1 {
		t.Fatalf("%d rows flagged selected, want exactly 1 (rows: %+v)", selected, rows)
	}
}

// TestOneShotWrappersStayOneShot: the package-level functions must not
// retain artifacts across calls (batch semantics).
func TestOneShotWrappersStayOneShot(t *testing.T) {
	g := sessionTestGraph(t)
	cs := &countingSessionStrategy{inner: cutfit.EdgePartition2D()}
	if _, err := cutfit.Measure(g, cs, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := cutfit.Measure(g, cs, 4); err != nil {
		t.Fatal(err)
	}
	if got := cs.calls.Load(); got != 2 {
		t.Fatalf("one-shot Measure called Partition %d times across two calls, want 2", got)
	}
}

// TestRunRefusedBeforePartitioning: a name the served-algorithm table does
// not hold, or parameters the named algorithm refuses, fail Session.Run
// before it assigns, builds or caches anything — the cache counters do not
// move — and the unknown-name error lists the table's names.
func TestRunRefusedBeforePartitioning(t *testing.T) {
	g := sessionTestGraph(t)
	se := cutfit.NewSession(cutfit.SessionOptions{})
	before := se.CacheStats()

	_, err := se.Run(context.Background(), g, cutfit.EdgePartition2D(), 6, "nope", 8)
	if err == nil {
		t.Fatal("unknown algorithm ran")
	}
	for _, e := range algorithms.Served() {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list %s", err, e.Name)
		}
	}
	if _, err := se.Run(context.Background(), g, cutfit.EdgePartition2D(), 6, "pagerank", 0); err == nil {
		t.Fatal("pagerank ran for zero iterations")
	}
	if after := se.CacheStats(); after != before {
		t.Errorf("refused runs moved the cache: %+v, was %+v", after, before)
	}
}
