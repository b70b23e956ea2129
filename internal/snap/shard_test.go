package snap

import (
	"reflect"
	"strings"
	"testing"

	"cutfit/internal/graph"
)

// testShard is a well-formed two-partition shard of a four-part topology:
// the vertex table starts at ID 0, the partitions ascend by index.
func testShard() *ShardPayload {
	return &ShardPayload{
		GraphFP:  0x0123456789abcdef,
		NumParts: 4,
		NumVerts: 4,
		Verts:    []graph.VertexID{0, 2, 3, 9},
		OutDeg:   []int32{1, 2, 0, 1},
		Parts: []ShardPart{
			{Index: 1, LocalVerts: []int32{0, 1}, EdgeSrc: []int32{0, 1}, EdgeDst: []int32{1, 0}},
			{Index: 3, LocalVerts: []int32{1, 2, 3}, EdgeSrc: []int32{0, 2}, EdgeDst: []int32{1, 1}},
		},
	}
}

// TestShardDecodeChecks: a shard comes off the network, so its decoder
// refuses a partition listed twice or out of order, and a vertex table that
// repeats an ID; everything else round-trips exactly.
func TestShardDecodeChecks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(sp *ShardPayload)
		wantErr string // "" for a valid shard
	}{
		{name: "round trip", mutate: func(*ShardPayload) {}},
		{name: "no owned partitions", mutate: func(sp *ShardPayload) { sp.Parts = nil }},
		{
			name:    "partition listed twice",
			mutate:  func(sp *ShardPayload) { sp.Parts[1].Index = 1 },
			wantErr: "shard partition index 1 follows 1",
		},
		{
			name:    "partitions descending",
			mutate:  func(sp *ShardPayload) { sp.Parts[0].Index, sp.Parts[1].Index = 3, 1 },
			wantErr: "shard partition index 1 follows 3",
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := testShard()
			tc.mutate(sp)
			got, err := DecodeShard(EncodeShard(sp))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid shard refused: %v", err)
			case tc.wantErr == "" && !reflect.DeepEqual(got, sp):
				t.Fatalf("round trip changed the shard:\n got %+v\nwant %+v", got, sp)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("decoded a shard that should fail with %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}
