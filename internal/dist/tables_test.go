package dist

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// postShard posts a shard container to a fresh worker's ShardInstall route.
func postShard(data []byte) (*Worker, *httptest.ResponseRecorder) {
	w := NewWorker()
	req := httptest.NewRequest(http.MethodPost, "/dist/v1/shards", bytes.NewReader(data))
	req.Header.Set(HeaderShardKey, "k")
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	return w, rec
}

// spliceTables returns the topology container top with its partition-table
// sections (ids 3–7) taken from the shard container shard: a shard of one
// worker owns every partition, so its tables are the topology's.
func spliceTables(t *testing.T, top, shard []byte) []byte {
	t.Helper()
	tc, err := snap.Decode(top)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := snap.Decode(shard)
	if err != nil {
		t.Fatal(err)
	}
	b := snap.NewBuilder(snap.KindTopology)
	for id := uint32(1); id <= 7; id++ {
		src := tc
		if id >= 3 {
			src = sc
		}
		p, ok := src.Section(id)
		if !ok {
			t.Fatalf("section %d missing", id)
		}
		b.Section(id, p)
	}
	return b.Bytes()
}

// TestShardInstallRejects: every shardRejects mutation of a real shard,
// re-encoded with valid CRCs, answers 400 and installs nothing.
func TestShardInstallRejects(t *testing.T) {
	pg := mustPartition(t, randomGraph(5, 30, 120), partition.EdgePartition2D(), 4)
	for i, mutate := range shardRejects {
		sp := extractShard(pg, 0, 2)
		mutate(sp)
		w, rec := postShard(snap.EncodeShard(sp))
		if rec.Code != http.StatusBadRequest || w.NumShards() != 0 {
			t.Errorf("mutation %d: status %d with %d shards installed, want 400 and none: %s", i, rec.Code, w.NumShards(), rec.Body)
		}
	}
}

// TestBadTablesRefusedByBothEntryPoints: a topology restore and a worker's
// shard install check partition tables with one validator,
// pregel.PartTables.Partitions, so each corruption of the tables fails both
// with that validator's error, and the install answers 400 and keeps
// nothing.
func TestBadTablesRefusedByBothEntryPoints(t *testing.T) {
	pg := mustPartition(t, randomGraph(5, 30, 120), partition.EdgePartition2D(), 4)
	nv := pg.G.NumVertices()
	top := snap.EncodeTopology(pg, "")

	// Intact tables pass both ways, and the shard's are the topology's.
	shard := snap.EncodeShard(extractShard(pg, 0, 1))
	back, err := snap.DecodeTopology(spliceTables(t, top, shard), pg.G, "", pregel.BuildOptions{})
	if err != nil {
		t.Fatalf("intact tables refused by the topology decoder: %v", err)
	}
	if !reflect.DeepEqual(back.RawTables(), pg.RawTables()) {
		t.Fatal("the shard's tables spliced into a topology restore a different topology")
	}
	if w, rec := postShard(shard); rec.Code != http.StatusNoContent || w.NumShards() != 1 {
		t.Fatalf("intact shard: status %d: %s", rec.Code, rec.Body)
	}

	for _, tc := range []struct {
		name   string
		mutate func(pt *pregel.PartTables)
	}{
		{"mirror table not ascending", func(pt *pregel.PartTables) {
			pt.LocalVerts[0], pt.LocalVerts[1] = pt.LocalVerts[1], pt.LocalVerts[0]
		}},
		{"mirror vertex past the graph", func(pt *pregel.PartTables) {
			pt.LocalVerts[pt.LocalVertsOffsets[1]-1] = int32(nv)
		}},
		{"endpoint outside its mirror table", func(pt *pregel.PartTables) {
			pt.Edges[0].Src = int32(pt.LocalVertsOffsets[1])
		}},
		{"edge offsets decrease", func(pt *pregel.PartTables) {
			pt.PartStart[1] = pt.PartStart[2] + 1
		}},
		{"edge offsets end short of the columns", func(pt *pregel.PartTables) {
			pt.PartStart[len(pt.PartStart)-1]--
		}},
		{"mirror offsets decrease", func(pt *pregel.PartTables) {
			pt.LocalVertsOffsets[1] = pt.LocalVertsOffsets[2] + 1
		}},
		{"mirror offsets end past the column", func(pt *pregel.PartTables) {
			pt.LocalVertsOffsets[len(pt.LocalVertsOffsets)-1]++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := extractShard(pg, 0, 1)
			if sp.Tables.LocalVertsOffsets[1] < 2 || sp.Tables.PartStart[1] < 1 {
				t.Fatal("partition 0 needs two mirrors and an edge for these corruptions")
			}
			tc.mutate(&sp.Tables)
			_, want := sp.Tables.Partitions(len(sp.Owned), nv)
			if want == nil {
				t.Fatal("the validator accepts the corruption")
			}
			shard := snap.EncodeShard(sp)
			_, err := snap.DecodeTopology(spliceTables(t, top, shard), pg.G, "", pregel.BuildOptions{})
			if err == nil || err.Error() != want.Error() {
				t.Errorf("topology decode: error %v, want %q", err, want)
			}
			w, rec := postShard(shard)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want.Error()) {
				t.Errorf("shard install: status %d body %q, want 400 naming %q", rec.Code, rec.Body, want)
			}
			if w.NumShards() != 0 {
				t.Error("a refused shard was installed")
			}
		})
	}
}
