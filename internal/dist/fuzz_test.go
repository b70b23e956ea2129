package dist

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cutfit/internal/partition"
	"cutfit/internal/snap"
)

// The container layout's structural offsets (internal/snap/container.go):
// a fixed header of magic, version, kind and section count, then one table
// entry of id, length and CRC per section.
const (
	containerHeader = 8 + 4 + 4 + 4
	containerEntry  = 4 + 8 + 4
)

// shardSeeds returns a real shard container plus structured mutations of
// it: truncations at structural boundaries, header and section-table bit
// flips, and re-encoded payloads that pass the CRCs but break one decoder
// rule each, so the fuzzer starts where the checks are.
func shardSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	pg := mustPartition(tb, randomGraph(5, 30, 120), partition.EdgePartition2D(), 4)
	data := snap.EncodeShard(extractShard(pg, 0, 2))
	seeds := [][]byte{data, nil}
	for _, n := range []int{0, 7, 8, containerHeader, containerHeader + containerEntry, len(data) / 2, len(data) - 1} {
		seeds = append(seeds, data[:n])
	}
	for _, off := range []int{0, 8, 12, 16, containerHeader, containerHeader + 4, containerHeader + 12} {
		m := append([]byte(nil), data...)
		m[off] ^= 0x01
		seeds = append(seeds, m)
	}
	for _, mutate := range []func(sp *snap.ShardPayload){
		func(sp *snap.ShardPayload) { sp.Parts[1].Index = sp.Parts[0].Index }, // partition twice
		func(sp *snap.ShardPayload) { sp.Verts[1] = sp.Verts[0] },             // vertex repeated
		func(sp *snap.ShardPayload) { sp.Parts[0].LocalVerts[0] = int32(sp.NumVerts) },
		func(sp *snap.ShardPayload) { sp.NumParts = 1 },
	} {
		sp := extractShard(pg, 0, 2)
		mutate(sp)
		seeds = append(seeds, snap.EncodeShard(sp))
	}
	return seeds
}

// FuzzShardInstall posts arbitrary bytes to a worker's ShardInstall route —
// the one snap decoder that reads network input. The worker answers 204 or
// 400, never panics or fails with a 5xx, installs nothing it refused, and a
// shard it installed holds only partitions inside its partition count, in
// ascending order, whose vertices index its vertex table.
func FuzzShardInstall(f *testing.F) {
	for _, s := range shardSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWorker()
		req := httptest.NewRequest(http.MethodPost, "/dist/v1/shards", bytes.NewReader(data))
		req.Header.Set(HeaderShardKey, "k")
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			if w.NumShards() != 0 {
				t.Fatal("a refused shard was installed")
			}
			return
		case http.StatusNoContent:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}

		ws, ok := w.shard("k")
		if !ok {
			t.Fatal("204 without an installed shard")
		}
		sp, err := snap.DecodeShard(data)
		if err != nil {
			t.Fatalf("installed a shard that does not decode: %v", err)
		}
		if len(ws.verts) != sp.NumVerts || len(ws.outDeg) != sp.NumVerts {
			t.Fatalf("shard holds %d vertices and %d out-degrees, meta says %d", len(ws.verts), len(ws.outDeg), sp.NumVerts)
		}
		owned := ws.topo.Owned()
		if len(owned) != len(sp.Parts) {
			t.Fatalf("shard owns %d partitions, payload carries %d", len(owned), len(sp.Parts))
		}
		for i, p := range sp.Parts {
			if p.Index != owned[i] || p.Index < 0 || p.Index >= sp.NumParts {
				t.Fatalf("partition %d of %d installed as %d", p.Index, sp.NumParts, owned[i])
			}
			for _, v := range p.LocalVerts {
				if v < 0 || int(v) >= len(ws.verts) {
					t.Fatalf("partition %d mirrors vertex %d outside the table of %d", p.Index, v, len(ws.verts))
				}
			}
		}
	})
}
