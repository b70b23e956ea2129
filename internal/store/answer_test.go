package store

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// answerFor runs cc to convergence on (g, 2D, 4) through st and returns the
// answer, without caching it.
func answerFor(t *testing.T, st *Store, g *graph.Graph) pregel.StoredAnswer {
	t.Helper()
	pg, err := st.Built(g, partition.EdgePartition2D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := algorithms.Lookup("cc")
	_, a, _, err := cc.Resume(context.Background(), pg, algorithms.ServedParams(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnswerIsAnEntryLikeAnyOther: an answer is priced (12 bytes a vertex
// for cc, plus its generation's storage if nothing else holds it), found
// behind the delta chain with the remap onto the descendant, evicted by the
// LRU bound and dropped with its graph.
func TestAnswerIsAnEntryLikeAnyOther(t *testing.T) {
	g := testGraph(t, 200, 800, 1)
	st := New(Config{})
	a := answerFor(t, st, g)
	if got, want := a.MemoryFootprint(), int64(g.NumVertices())*12; got != want {
		t.Fatalf("cc answer priced at %d bytes, want %d (a label and a stamp per vertex)", got, want)
	}
	// The run built the graph's degree tables: bring its charge up to date
	// first, so the difference below is the answer's alone.
	st.RepriceBuilt(g, partition.EdgePartition2D(), 4)
	before := st.Stats()
	st.PutAnswer(g, "cc", a, false)
	after := st.Stats()
	if after.Entries != before.Entries+1 || after.Bytes != before.Bytes+a.MemoryFootprint() {
		t.Fatalf("caching the answer took the store from %+v to %+v: want one entry and its footprint more", before, after)
	}
	if got := st.Answers(); len(got) != 1 || got[0] != a {
		t.Fatalf("Answers() = %v, want the one just cached", got)
	}

	if _, why := st.AnswerBase(g, "cc"); why != "no_parent" {
		t.Fatalf("a first generation's AnswerBase says %q, want no_parent", why)
	}
	child := growBy(t, st, g, []graph.Edge{{Src: 900, Dst: 2}})
	grand := growBy(t, st, child, []graph.Edge{{Src: 3, Dst: 4}})
	from, why := st.AnswerBase(grand, "cc")
	if from == nil || from.Answer != a || from.OldLen != g.NumEdges() {
		t.Fatalf("AnswerBase two generations down: %+v (%q), want g's answer with OldLen %d", from, why, g.NumEdges())
	}
	if _, why := st.AnswerBase(grand, "sssp"); why != "no_answer" {
		t.Fatalf("AnswerBase for an algorithm never run says %q, want no_answer", why)
	}
	if st.Stats().Seeded != 0 {
		t.Fatal("looking an answer up counted a seeded run")
	}
	st.PutAnswer(grand, "cc", answerFor(t, st, grand), true)
	if st.Stats().Seeded != 1 {
		t.Fatalf("Seeded = %d after caching a seeded run's answer, want 1", st.Stats().Seeded)
	}

	st.InvalidateGraph(g)
	if _, why := st.AnswerBase(child, "cc"); why != "no_parent" {
		t.Fatalf("after InvalidateGraph(g) the child's AnswerBase says %q, want no_parent", why)
	}
	if got := st.Answers(); len(got) != 1 {
		t.Fatalf("%d answers cached after invalidating g, want only the grandchild's", len(got))
	}

	// A budget below one topology: the next artifact in evicts the answer.
	small := New(Config{MaxBytes: 1})
	small.PutAnswer(g, "cc", a, false)
	growBy(t, small, g, []graph.Edge{{Src: 1, Dst: 2}})
	if _, err := small.Assignment(g, partition.EdgePartition2D(), 4); err != nil {
		t.Fatal(err)
	}
	if got := small.Answers(); len(got) != 0 || small.Stats().Evictions == 0 {
		t.Fatalf("a one-byte cache still holds %d answers after an insert (stats %+v)", len(got), small.Stats())
	}
}

// TestAnswersStayInMemory: Persist, FlushDisk and eviction spill all skip
// answers — a snapshot and a disk tier written with answers cached hold
// exactly what they hold without.
func TestAnswersStayInMemory(t *testing.T) {
	g := testGraph(t, 200, 800, 1)
	s := partition.EdgePartition2D()
	snapshot := func(withAnswer bool) ([]byte, PersistSummary, int, []string) {
		dir := t.TempDir()
		st := New(Config{DiskDir: dir})
		if _, err := st.Built(g, s, 4); err != nil {
			t.Fatal(err)
		}
		if withAnswer {
			st.PutAnswer(g, "cc", answerFor(t, st, g), false)
		}
		var buf bytes.Buffer
		sum, err := st.Persist(&buf, map[string]*graph.Graph{"g": g})
		if err != nil {
			t.Fatal(err)
		}
		flushed, err := st.FlushDisk()
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), sum, flushed, diskFiles(t, dir)
	}
	plain, plainSum, plainFlushed, plainFiles := snapshot(false)
	with, withSum, withFlushed, withFiles := snapshot(true)
	if !bytes.Equal(plain, with) || plainSum != withSum {
		t.Fatalf("a cached answer changed the snapshot: %+v vs %+v", plainSum, withSum)
	}
	if plainFlushed != withFlushed || len(plainFiles) != len(withFiles) {
		t.Fatalf("a cached answer changed the flush: %d entries / %d files vs %d / %d", withFlushed, len(withFiles), plainFlushed, len(plainFiles))
	}

	// Evicted under a disk tier: the assignment that pushed it out may spill,
	// the answer never does.
	dir := t.TempDir()
	st := New(Config{MaxBytes: 1, DiskDir: dir})
	st.PutAnswer(g, "cc", answerFor(t, New(Config{}), g), false)
	if _, err := st.Assignment(g, s, 4); err != nil {
		t.Fatal(err)
	}
	if len(st.Answers()) != 0 {
		t.Fatal("the answer was not evicted")
	}
	if files := diskFiles(t, dir); len(files) != 0 {
		t.Fatalf("evicting an answer wrote %v to the disk tier", files)
	}
}

// TestReadAllSized: a snapshot reads whole — from a file at offset 0, from a
// file some of which was already consumed (it used to fail with unexpected
// EOF), from an in-memory reader in one allocation of its length, and from a
// reader that says nothing about its size.
func TestReadAllSized(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, err := readAllSized(f); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("whole file: %d bytes, %v", len(got), err)
	}
	if _, err := f.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got, err := readAllSized(f); err != nil || !bytes.Equal(got, want[100:]) {
		t.Fatalf("file from offset 100: %d bytes, %v; want the remaining %d", len(got), err, len(want)-100)
	}
	if got, err := readAllSized(f); err != nil || len(got) != 0 {
		t.Fatalf("file at its end: %d bytes, %v", len(got), err)
	}

	padded := append(make([]byte, 7), want...)
	for name, r := range map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(want) },
		"bytes.Buffer": func() io.Reader { return bytes.NewBuffer(want) },
		"half-read bytes.Reader": func() io.Reader {
			r := bytes.NewReader(padded)
			r.Seek(7, io.SeekStart)
			return r
		},
	} {
		var got []byte
		allocs := testing.AllocsPerRun(5, func() { got, err = readAllSized(r()) })
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, %v", name, len(got), err)
		}
		if cap(got) > len(want)+1 {
			t.Errorf("%s: buffer of %d for %d bytes", name, cap(got), len(want))
		}
		if allocs > 3 { // the reader, the buffer; never ReadAll's ladder of ~20
			t.Errorf("%s: %.0f allocations per read", name, allocs)
		}
	}
	// No size on offer, bytes trickling in: still everything.
	if got, err := readAllSized(iotest.OneByteReader(io.MultiReader(bytes.NewReader(want[:50]), bytes.NewReader(want[50:99])))); err != nil || !bytes.Equal(got, want[:99]) {
		t.Fatalf("unsized reader: %d bytes, %v", len(got), err)
	}
	// A size that undersells: a file that grew after it was sized is still
	// read to its end.
	if got, err := readAllSized(lyingLen{bytes.NewReader(want)}); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reader longer than its Len: %d bytes, %v", len(got), err)
	}
}

// lyingLen reports a tenth of what it holds.
type lyingLen struct{ *bytes.Reader }

func (l lyingLen) Len() int { return l.Reader.Len() / 10 }
