package snap

import (
	"bytes"
	"strings"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// testShard is a well-formed two-partition shard of a four-part topology:
// the vertex table starts at ID 0, the owned partitions 1 and 3 ascend.
func testShard() *ShardPayload {
	return &ShardPayload{
		GraphFP:  0x0123456789abcdef,
		NumParts: 4,
		NumVerts: 4,
		Verts:    []graph.VertexID{0, 2, 3, 9},
		OutDeg:   []int32{1, 2, 0, 1},
		Owned:    []int32{1, 3},
		Tables: pregel.PartTables{
			PartStart:         []int64{0, 2, 4},
			Edges:             []pregel.LocalEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 0, Dst: 1}, {Src: 2, Dst: 1}},
			LocalVertsOffsets: []int64{0, 2, 5},
			LocalVerts:        []int32{0, 1, 1, 2, 3},
		},
	}
}

// TestShardDecodeChecks: a shard comes off the network, so the worker's
// route — DecodeShard, then the partition tables through
// pregel.PartTables.Partitions — refuses a partition listed twice or out of
// order, a partition count too small for the owned list, a vertex table that
// repeats an ID and a mirror naming a vertex past the table; a valid shard
// re-encodes to the bytes it came from.
func TestShardDecodeChecks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(sp *ShardPayload)
		wantErr string // "" for a valid shard
	}{
		{name: "round trip", mutate: func(*ShardPayload) {}},
		{name: "no owned partitions", mutate: func(sp *ShardPayload) {
			sp.Owned, sp.Tables = nil, pregel.PartTables{PartStart: []int64{0}, LocalVertsOffsets: []int64{0}}
		}},
		{
			name:    "partition listed twice",
			mutate:  func(sp *ShardPayload) { sp.Owned[1] = 1 },
			wantErr: "shard partition index 1 follows 1",
		},
		{
			name:    "partitions descending",
			mutate:  func(sp *ShardPayload) { sp.Owned[0], sp.Owned[1] = 3, 1 },
			wantErr: "shard partition index 1 follows 3",
		},
		{
			name:    "too few partitions for the owned list",
			mutate:  func(sp *ShardPayload) { sp.NumParts = 2 },
			wantErr: "shard partition index 3 out of range [0,2)",
		},
		{
			name:    "partition count above the limit",
			mutate:  func(sp *ShardPayload) { sp.NumParts = maxNumParts + 1 },
			wantErr: "shard meta out of range",
		},
		{
			name:    "vertex repeated",
			mutate:  func(sp *ShardPayload) { sp.Verts[2] = 2 },
			wantErr: "vertex list repeats vertex 2 at entry 2",
		},
		{
			name:    "first vertex repeated",
			mutate:  func(sp *ShardPayload) { sp.Verts[1] = 0 },
			wantErr: "vertex list repeats vertex 0 at entry 1",
		},
		{
			name:    "local vertex equal to the vertex count",
			mutate:  func(sp *ShardPayload) { sp.Tables.LocalVerts[4] = int32(sp.NumVerts) },
			wantErr: "partition 1 mirror table spans [1, 4], graph has 4 vertices",
		},
		{
			name:    "owned list longer than the tables",
			mutate:  func(sp *ShardPayload) { sp.Owned = []int32{1, 2, 3} },
			wantErr: "PartStart has 3 entries, want 4",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := testShard()
			tc.mutate(sp)
			data := EncodeShard(sp)
			got, err := DecodeShard(data)
			if err == nil {
				_, err = got.Tables.Partitions(len(got.Owned), got.NumVerts)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid shard refused: %v", err)
			case tc.wantErr == "" && !bytes.Equal(EncodeShard(got), data):
				t.Fatalf("round trip changed the shard:\n got %+v\nwant %+v", got, sp)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("decoded a shard that should fail with %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}
