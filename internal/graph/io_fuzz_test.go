package graph

import (
	"bytes"
	"testing"
)

// FuzzReadEdgeList guards the text-ingest path the benchmarks and CLI
// commands depend on: arbitrary input must never panic, and anything the
// parser accepts must survive a write/reparse round trip unchanged.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"1 2\n3 4\n",
		"# cutfit edge list: 2 vertices, 1 edges\n1\t2\n",
		"% matrix-market style comment\r\n5 6\r\n7 8\r\n",
		"",
		"\n\n\n",
		"   \t  \n",
		"1 2 weighted-extra-field 0.5\n", // a third field: refused
		"1 2 2.5\n3 4\n",                 // ... numeric or not
		"9223372036854775807 0\n",        // max int64
		"-42 -7\n",                       // negative IDs parse; Validate rejects later
		"99999999999999999999 1\n",       // overflows int64
		"a b\n",                          // non-numeric
		"1\n",                            // one field
		"0x10 7\n",                       // hex not accepted
		"3.14 1\n",                       // float not accepted
		"7 8\n# trailing comment",
		"\ufeff1 2\n", // BOM glued to first token
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		// Accepted input must round-trip: write the parsed graph and parse
		// it back to the identical edge list.
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("writing parsed graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparsing written graph: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count: %d != %d", g2.NumEdges(), g.NumEdges())
		}
		for i, e := range g.Edges() {
			if g2.Edges()[i] != e {
				t.Fatalf("round trip changed edge %d: %v != %v", i, g2.Edges()[i], e)
			}
		}
		if g2.NumVertices() != g.NumVertices() {
			t.Fatalf("round trip changed vertex count: %d != %d", g2.NumVertices(), g.NumVertices())
		}
	})
}
