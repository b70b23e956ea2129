package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/testutil"
)

// diskFiles lists the .snap entries of a disk tier directory.
func diskFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestDiskSpillAndHit: evicted entries spill to disk and satisfy the next
// miss without recomputing.
func TestDiskSpillAndHit(t *testing.T) {
	dir := t.TempDir()
	g1 := testGraph(t, 200, 800, 1)
	g2 := testGraph(t, 200, 800, 2)
	cs := &countingStrategy{inner: partition.EdgePartition2D(), name: "count2D"}
	// A budget of one assignment: computing g2's evicts g1's.
	st := New(Config{MaxBytes: 4000, DiskDir: dir})

	a1, err := st.Assignment(g1, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Assignment(g2, cs, 8); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Evictions; got == 0 {
		t.Fatalf("budget of 4000 bytes evicted nothing (stats %+v)", st.Stats())
	}
	if files := diskFiles(t, dir); len(files) == 0 {
		t.Fatal("eviction spilled nothing to disk")
	}

	back, err := st.Assignment(g1, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.PIDs, a1.PIDs) {
		t.Fatal("disk-restored assignment differs from the original")
	}
	if got := cs.calls.Load(); got != 2 {
		t.Fatalf("strategy ran %d times, want 2 (third request must come from disk)", got)
	}
	stats := st.Stats()
	if stats.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1 (stats %+v)", stats.DiskHits, stats)
	}
	if stats.DiskBytes == 0 || stats.DiskEntries == 0 {
		t.Fatalf("disk tier stats empty after spill: %+v", stats)
	}
}

// TestDiskSurvivesRestart: a fresh store over the same directory — and a
// fresh graph object with the same content — restores spilled artifacts
// instead of recomputing. This is the warm-restart contract: disk keys are
// content fingerprints, never pointers or process-local versions.
func TestDiskSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 200, 800, 3)
	cs := &countingStrategy{inner: partition.EdgePartition2D(), name: "count2D"}

	st1 := New(Config{DiskDir: dir})
	want, err := st1.Built(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st1.FlushDisk(); err != nil {
		t.Fatal(err)
	}

	// "Restart": new store, new graph object with identical content.
	g2 := graph.FromEdges(append([]graph.Edge(nil), g.Edges()...))
	st2 := New(Config{DiskDir: dir})
	got, err := st2.Built(g2, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cs.calls.Load() != 1 {
		t.Fatalf("strategy ran %d times, want 1 — restart recomputed instead of reading disk", cs.calls.Load())
	}
	if !reflect.DeepEqual(got.RawTables(), want.RawTables()) {
		t.Fatal("disk-restored topology differs from the original")
	}
	if st2.Stats().DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st2.Stats().DiskHits)
	}
}

// TestInvalidateGraphDropsDiskEntries is the regression test for the
// disk-tier invalidation fix: forgetting a graph must delete its spilled
// files (by content fingerprint, including files from previous processes)
// so a later identical request recomputes instead of resurrecting state
// the caller explicitly dropped.
func TestInvalidateGraphDropsDiskEntries(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 200, 800, 4)
	other := testGraph(t, 200, 800, 5)
	cs := &countingStrategy{inner: partition.EdgePartition2D(), name: "count2D"}

	st := New(Config{DiskDir: dir})
	if _, err := st.Assignment(g, cs, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Built(g, cs, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Assignment(other, cs, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := st.FlushDisk(); err != nil {
		t.Fatal(err)
	}
	before := diskFiles(t, dir)
	if len(before) < 3 {
		t.Fatalf("expected ≥3 spilled files, got %v", before)
	}

	st.InvalidateGraph(g)

	prefix := filepath.Base(diskName(g.Fingerprint(), "count2D", 8, kindAssignment))[:17]
	for _, f := range diskFiles(t, dir) {
		if strings.HasPrefix(f, prefix) {
			t.Fatalf("InvalidateGraph left spilled file %s on disk", f)
		}
	}
	// The other graph's entries must survive.
	if len(diskFiles(t, dir)) == 0 {
		t.Fatal("InvalidateGraph wiped unrelated graphs' disk entries")
	}
	// And the invalidated tuple must recompute, not resurrect.
	calls := cs.calls.Load()
	if _, err := st.Assignment(g, cs, 8); err != nil {
		t.Fatal(err)
	}
	if cs.calls.Load() != calls+1 {
		t.Fatalf("request after invalidation did not recompute (calls %d -> %d)", calls, cs.calls.Load())
	}
	// Delta chains through g are severed too: a record into g must be gone.
	if st.Stats().DiskHits != 0 {
		t.Fatalf("invalidated entry served from disk: %+v", st.Stats())
	}
}

// TestDiskIgnoresCorruptEntry: a corrupt spilled file degrades to a miss
// (recompute) and is deleted, never decoded into a wrong artifact.
func TestDiskIgnoresCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 200, 800, 6)
	cs := &countingStrategy{inner: partition.EdgePartition2D(), name: "count2D"}
	st := New(Config{DiskDir: dir})
	want, err := st.Assignment(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.FlushDisk(); err != nil {
		t.Fatal(err)
	}
	name := diskName(g.Fingerprint(), "count2D", 8, kindAssignment)
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := New(Config{DiskDir: dir})
	got, err := st2.Assignment(g, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PIDs, want.PIDs) {
		t.Fatal("recomputed assignment differs")
	}
	if st2.Stats().DiskHits != 0 {
		t.Fatal("corrupt disk entry counted as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt disk entry was not deleted")
	}
}

// TestDiskBudgetEvictsOldest: the disk tier drops oldest entries beyond
// its byte budget and never the entry just written.
func TestDiskBudgetEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	dt, err := newDiskTier(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.put("a.snap", bytes.Repeat([]byte{1}, 40)); err != nil {
		t.Fatal(err)
	}
	if err := dt.put("b.snap", bytes.Repeat([]byte{2}, 40)); err != nil {
		t.Fatal(err)
	}
	if _, ok := dt.get("a.snap"); ok {
		t.Fatal("oldest entry survived a budget overflow")
	}
	if _, ok := dt.get("b.snap"); !ok {
		t.Fatal("the just-written entry was evicted")
	}
	// An entry larger than the whole budget is still written (and becomes
	// the next victim).
	if err := dt.put("c.snap", bytes.Repeat([]byte{3}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := dt.get("c.snap"); !ok {
		t.Fatal("over-budget entry was not written")
	}
}

// TestPersistRestoreStore: a whole-cache snapshot round-trips graphs
// (labeled and unlabeled), every artifact stage, and serves the first
// post-restore requests as pure hits.
func TestPersistRestoreStore(t *testing.T) {
	g := testGraph(t, 300, 1500, 7)
	unlabeled := testGraph(t, 100, 400, 8)
	s := partition.EdgePartition2D()
	st := New(Config{})
	wantA, err := st.Assignment(g, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := st.Metrics(g, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantPG, err := st.Built(g, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Assignment(unlabeled, s, 4); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sum, err := st.Persist(&buf, map[string]*graph.Graph{"main": g, "alias": g})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Graphs != 2 || sum.Artifacts != 4 || sum.Bytes != int64(buf.Len()) {
		t.Fatalf("summary %+v, want 2 graphs / 4 artifacts / %d bytes", sum, buf.Len())
	}

	st2 := New(Config{})
	named, err := st2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(named) != 2 || named["main"] == nil || named["main"] != named["alias"] {
		t.Fatalf("restored names %v, want main and alias sharing one graph", named)
	}
	rg := named["main"]
	cs := &countingStrategy{inner: partition.EdgePartition2D(), name: "2D"} // same cache key as 2D
	gotA, err := st2.Assignment(rg, cs, 16)
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := st2.Metrics(rg, cs, 16)
	if err != nil {
		t.Fatal(err)
	}
	gotPG, err := st2.Built(rg, cs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cs.calls.Load() != 0 {
		t.Fatalf("post-restore requests ran the strategy %d times, want 0", cs.calls.Load())
	}
	if !reflect.DeepEqual(gotA.PIDs, wantA.PIDs) || !reflect.DeepEqual(gotA.EdgesPerPart, wantA.EdgesPerPart) {
		t.Fatal("restored assignment differs")
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("restored metrics differ:\n got %+v\nwant %+v", gotM, wantM)
	}
	if !reflect.DeepEqual(gotPG.RawTables(), wantPG.RawTables()) {
		t.Fatal("restored topology differs")
	}
	stats := st2.Stats()
	if stats.Misses != 0 || stats.Hits != 3 {
		t.Fatalf("post-restore stats %+v, want 3 hits / 0 misses", stats)
	}
}

// TestPersistDeterministic: the snapshot encoding is canonical — two
// Persist calls over one cache state produce identical bytes.
func TestPersistDeterministic(t *testing.T) {
	g := testGraph(t, 200, 900, 9)
	st := New(Config{})
	for _, parts := range []int{4, 8, 16} {
		if _, err := st.Metrics(g, partition.EdgePartition2D(), parts); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Built(g, partition.SourceCut(), parts); err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]*graph.Graph{"g": g}
	var b1, b2 bytes.Buffer
	if _, err := st.Persist(&b1, names); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Persist(&b2, names); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two Persist calls over one cache state produced different bytes")
	}
}

// TestRestoreRejectsCorruption: every single-byte flip of a store snapshot
// is rejected by Restore.
func TestRestoreRejectsCorruption(t *testing.T) {
	g := testGraph(t, 50, 200, 10)
	st := New(Config{})
	if _, err := st.Metrics(g, partition.EdgePartition2D(), 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.Persist(&buf, map[string]*graph.Graph{"g": g}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < len(data); i += 7 { // sample every 7th byte for speed
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xFF
		if _, err := New(Config{}).Restore(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip at byte %d restored successfully", i)
		}
	}
}

// restoredState flattens everything a Restore put into a store, in LRU
// order (most recent first): per entry its key and the artifact's content,
// plus the restored graphs' edges and vertex lists by label.
func restoredState(t *testing.T, st *Store, named map[string]*graph.Graph) []any {
	t.Helper()
	labels := make([]string, 0, len(named))
	for label := range named {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var state []any
	for _, label := range labels {
		g := named[label]
		state = append(state, label, g.Edges(), g.Vertices(), g.Fingerprint())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for el := st.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		state = append(state, e.key.strategy, e.key.numParts, e.key.kind, e.cost)
		switch v := e.val.(type) {
		case *partition.Assignment:
			state = append(state, v.PIDs, v.EdgesPerPart, v.Strategy)
		case *metrics.Result:
			state = append(state, *v)
		case *pregel.PartitionedGraph:
			state = append(state, v.RawTables())
		default:
			t.Fatalf("restored entry holds a %T", e.val)
		}
	}
	return state
}

// TestRestoreParallelMatchesSerial: decoding the artifact records on many
// workers restores exactly what one worker restores — the same graphs, the
// same assignments, metric sets and topologies, in the same cache order,
// with the same evictions when the budget is too small for the snapshot.
// Part of `make race`.
func TestRestoreParallelMatchesSerial(t *testing.T) {
	g := testGraph(t, 400, 3000, 21)
	other := testGraph(t, 150, 700, 22)
	st := New(Config{})
	for _, s := range partition.All() {
		if _, err := st.Metrics(g, s, 16); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Built(g, partition.EdgePartition2D(), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Built(other, partition.SourceCut(), 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sum, err := st.Persist(&buf, map[string]*graph.Graph{"g": g, "other": other})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*len(partition.All()) + 1 + 2; sum.Artifacts != want {
		t.Fatalf("snapshot holds %d artifacts, want %d", sum.Artifacts, want)
	}

	procs := runtime.GOMAXPROCS(0)
	for _, maxBytes := range []int64{0, st.Stats().Bytes / 2} {
		restore := func(workers int) ([]any, Stats) {
			testutil.SetGOMAXPROCS(t, workers)
			st := New(Config{MaxBytes: maxBytes})
			named, err := st.Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			return restoredState(t, st, named), st.Stats()
		}
		serial, serialStats := restore(1)
		if maxBytes != 0 && serialStats.Evictions == 0 {
			t.Fatalf("budget %d evicted nothing: the eviction order is not exercised", maxBytes)
		}
		for _, workers := range []int{procs, 2, 8} {
			got, stats := restore(workers)
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("budget %d: %d workers restored a different cache than one", maxBytes, workers)
			}
			if stats != serialStats {
				t.Errorf("budget %d: %d workers stats %+v, serial %+v", maxBytes, workers, stats, serialStats)
			}
		}
	}
}
