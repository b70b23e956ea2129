package store

import (
	"bytes"
	"testing"

	"cutfit/internal/snap"
)

// FuzzRestore feeds whole-store snapshot bytes through Store.Restore. The
// seeds are a real Persist output, its truncations and bit flips, and
// resealed snapshots whose CRCs hold but whose graph or artifact no longer
// matches the recorded identity, so the fuzzer starts past the CRC checks.
// Every input must end in an error that leaves the cache empty or in a
// restore whose graphs validate — never a panic or a hang.
func FuzzRestore(f *testing.F) {
	data, ai := identitySnapshot(f)
	f.Add(data)
	for _, n := range []int{0, 8, 24, len(data) / 3, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	for _, at := range []int{9, 17, len(data) / 4, len(data) / 2, len(data) - 5} {
		flipped := bytes.Clone(data)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	sg, sa, err := snap.DecodeStore(data)
	if err != nil {
		f.Fatal(err)
	}
	g := append([]snap.StoreGraph(nil), sg...)
	g[0].Data = reseal(f, g[0].Data, secGraphEdges, reorderEdges(f))
	f.Add(snap.EncodeStore(g, sa))
	a := append([]snap.StoreArtifact(nil), sa...)
	a[ai].Data = reseal(f, a[ai].Data, secMeta, forgeAssignmentFingerprint)
	f.Add(snap.EncodeStore(sg, a))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := New(Config{})
		named, err := st.Restore(bytes.NewReader(data))
		if err != nil {
			if s := st.Stats(); s.Entries != 0 {
				t.Fatalf("a failed restore left %d entries: %v", s.Entries, err)
			}
			return
		}
		for label, g := range named {
			if err := g.Validate(); err != nil {
				t.Fatalf("restored graph %q: %v", label, err)
			}
		}
	})
}
