package snap

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
)

// rebuilt re-encodes a container with edit applied to its sections (id →
// payload; a nil payload drops the section), keeping the canonical order.
func rebuilt(t *testing.T, data []byte, edit map[uint32][]byte) []byte {
	t.Helper()
	c, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[uint32][]byte{}
	for i, id := range c.ids {
		sections[id] = c.sections[i]
	}
	for id, p := range edit {
		sections[id] = p
	}
	b := NewBuilder(c.Kind)
	for id := uint32(1); id <= maxSections; id++ {
		if p, ok := sections[id]; ok && p != nil {
			b.Section(id, p)
		}
	}
	return b.Bytes()
}

// blockGraphFile is a block-graph image of g whose prefix sections pass
// through edit.
func blockGraphFile(t *testing.T, g *graph.Graph, edit func(meta, index []byte)) []byte {
	t.Helper()
	prefix, payloads, err := EncodeBlockGraphPrefix(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(prefix)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Section(secMeta)
	index, _ := c.Section(secBlockIndex)
	meta, index = bytes.Clone(meta), bytes.Clone(index)
	edit(meta, index)
	out := rebuilt(t, prefix, map[uint32][]byte{secMeta: meta, secBlockIndex: index})
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

// TestDecodeRefusesWeights: edges have no weight, so every decoder refuses
// what a weighted artifact would carry — section 4 of a graph or a metrics
// container, a block graph's weighted flag and a block's weight-sidecar
// extent — with an error naming what it found. The unedited bytes decode.
func TestDecodeRefusesWeights(t *testing.T) {
	g := testGraph(t)
	m, err := metrics.FromAssignment(testAssignment(t, g, partition.EdgePartition2D(), 4))
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]byte, 0, 8*g.NumEdges())
	for range g.NumEdges() {
		ones = binary.LittleEndian.AppendUint64(ones, 0x3ff0000000000000) // 1.0
	}
	bb := graph.NewBlockBuilder(64)
	bb.Append(testBlockGraph(t).Edges())
	bg := graph.FromBlocks(bb.Finish())
	decodeGraph := func(data []byte) error { _, err := DecodeGraph(data); return err }
	decodeMetrics := func(data []byte) error { _, err := DecodeMetrics(data, g, "2D"); return err }
	openBlocks := func(data []byte) error {
		_, err := OpenBlockGraphAt(bytes.NewReader(data), int64(len(data)))
		return err
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) error
		clean  []byte
		edited []byte
		want   string
	}{
		{"graph section 4", decodeGraph, EncodeGraph(g),
			rebuilt(t, EncodeGraph(g), map[uint32][]byte{secWeights: ones}), "graph container carries a weight section (section 4)"},
		{"metrics section 4", decodeMetrics, EncodeMetrics(m, g, "2D"),
			rebuilt(t, EncodeMetrics(m, g, "2D"), map[uint32][]byte{secWeights: ones[:8*(m.NumParts+1)]}), "metrics container carries a weight section (section 4)"},
		{"block graph wflag 1", openBlocks, blockGraphFile(t, bg, func([]byte, []byte) {}),
			blockGraphFile(t, bg, func(meta, _ []byte) { binary.LittleEndian.PutUint32(meta[32:], 1) }), "weighted flag 1"},
		{"block graph WLen", openBlocks, blockGraphFile(t, bg, func([]byte, []byte) {}),
			blockGraphFile(t, bg, func(_, index []byte) {
				binary.LittleEndian.PutUint32(index[blockIndexEntryBytes+28:], 512)
			}), "block 1 has a 512-byte weight sidecar"},
	} {
		if err := c.decode(c.clean); err != nil {
			t.Fatalf("%s: the unedited bytes do not decode: %v", c.name, err)
		}
		err := c.decode(c.edited)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "edge weights are not supported") {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
