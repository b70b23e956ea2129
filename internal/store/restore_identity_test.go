package store

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/snap"
	"cutfit/internal/testutil"
)

// reseal re-encodes a container with the section of the given id replaced
// by edit's result, recomputing every CRC: the snapshot stays well-formed,
// so only the decoders' own checks can reject it.
func reseal(t testing.TB, data []byte, id uint32, edit func([]byte) []byte) []byte {
	t.Helper()
	c, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	b := snap.NewBuilder(c.Kind)
	found := false
	for sid := uint32(1); sid <= 16; sid++ {
		p, ok := c.Section(sid)
		if !ok {
			continue
		}
		if sid == id {
			p, found = edit(bytes.Clone(p)), true
		}
		b.Section(sid, p)
	}
	if !found {
		t.Fatalf("container has no section %d", id)
	}
	return b.Bytes()
}

// identitySnapshot persists a store holding one graph's 2D assignment,
// metric set and topology, and returns the snapshot with the index of its
// assignment record.
func identitySnapshot(t testing.TB) (data []byte, assignment int) {
	t.Helper()
	g := testGraph(t, 120, 600, 31)
	st := New(Config{})
	if _, err := st.Metrics(g, partition.EdgePartition2D(), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Built(g, partition.EdgePartition2D(), 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.Persist(&buf, map[string]*graph.Graph{"g": g}); err != nil {
		t.Fatal(err)
	}
	_, sa, err := snap.DecodeStore(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range sa {
		if a.Stage == snap.StageAssignment {
			return buf.Bytes(), i
		}
	}
	t.Fatal("the snapshot holds no assignment record")
	return nil, 0
}

// Section ids of the nested containers the cases below edit.
const (
	secMeta       = 1 // every kind's meta section
	secGraphEdges = 3 // a graph container's edge list
)

// reorderEdges swaps the graph record's first two distinct edges: the
// vertex list and the counts still hold, so only the recomputed
// fingerprint can tell.
func reorderEdges(t testing.TB) func([]byte) []byte {
	return func(p []byte) []byte {
		edges, err := graph.DecodeEdges(p)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(edges); j++ {
			if edges[j] != edges[0] {
				edges[0], edges[j] = edges[j], edges[0]
				return graph.EncodeEdges(nil, edges)
			}
		}
		t.Fatal("the graph has no two distinct edges")
		return nil
	}
}

// forgeAssignmentFingerprint flips a bit of the fingerprint an assignment
// container's meta records (after numParts u32 and numEdges u64).
func forgeAssignmentFingerprint(p []byte) []byte {
	fp := binary.LittleEndian.Uint64(p[12:])
	binary.LittleEndian.PutUint64(p[12:], fp^1)
	return p
}

// TestRestoreIdentityChain: artifacts are checked against their graph
// record's recorded identity while its edges decode, so a graph whose
// edges no longer reproduce that identity, an artifact recording another
// identity, or both, must each fail the restore with the error a serial
// restore meets first — the graph's before any artifact's — leaving the
// cache empty and no goroutine behind, at one worker and at several.
func TestRestoreIdentityChain(t *testing.T) {
	data, ai := identitySnapshot(t)
	sg, sa, err := snap.DecodeStore(data)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(graphEdges, artifactFP bool) []byte {
		g := append([]snap.StoreGraph(nil), sg...)
		a := append([]snap.StoreArtifact(nil), sa...)
		if graphEdges {
			g[0].Data = reseal(t, g[0].Data, secGraphEdges, reorderEdges(t))
		}
		if artifactFP {
			a[ai].Data = reseal(t, a[ai].Data, secMeta, forgeAssignmentFingerprint)
		}
		return snap.EncodeStore(g, a)
	}
	cases := []struct {
		name string
		data []byte
		want []string // substrings of the error; none for a clean restore
	}{
		{"resealed unchanged", edit(false, false), nil},
		{"graph edge reordered", edit(true, false), []string{"restoring graph 0", "graph fingerprint mismatch: decoded"}},
		{"artifact fingerprint forged", edit(false, true), []string{"restoring artifact", "assignment graph fingerprint mismatch"}},
		{"both", edit(true, true), []string{"restoring graph 0", "graph fingerprint mismatch: decoded"}},
	}
	for _, workers := range []int{1, 4} {
		testutil.SetGOMAXPROCS(t, workers)
		for _, c := range cases {
			before := runtime.NumGoroutine()
			st := New(Config{})
			named, err := st.Restore(bytes.NewReader(c.data))
			if c.want == nil {
				if err != nil || named["g"] == nil || st.Stats().Entries != len(sa) {
					t.Fatalf("%d workers, %s: restored %d entries, err %v", workers, c.name, st.Stats().Entries, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%d workers, %s: restore succeeded", workers, c.name)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%d workers, %s: error %q does not say %q", workers, c.name, err, w)
				}
			}
			if s := st.Stats(); s.Entries != 0 || s.Bytes != 0 {
				t.Errorf("%d workers, %s: a failed restore left %d entries (%d bytes) in the cache", workers, c.name, s.Entries, s.Bytes)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d workers, %s: %d goroutines after the restore, %d before", workers, c.name, n, before)
			}
		}
	}
}
