package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}, {5, 5}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdges(g, back) {
		t.Fatalf("round trip mismatch: %v vs %v", g.Edges(), back.Edges())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# header\n% other comment\n\n1 2\n3\t4\n  5   6  \n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",        // missing destination
		"a b\n",      // non-numeric source
		"1 b\n",      // non-numeric destination
		"1 2 x\na\n", // bad later line
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestBinaryRoundTrip: the binary edge payload decodes to the edges it
// encodes, in order.
func TestBinaryRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 40, 150)
		back, err := DecodeEdges(EncodeEdges(nil, g.Edges()))
		return err == nil && slices.Equal(back, g.Edges())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	raw := EncodeEdges(nil, []Edge{{0, 1}, {1, 2}})
	if _, err := DecodeEdges(raw[:len(raw)-1]); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	back, err := DecodeEdges(EncodeEdges(nil, FromEdges(nil).Edges()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("edges = %d, want 0", len(back))
	}
}

func sameEdges(a, b *Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}
