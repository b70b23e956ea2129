package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The loaders' previous implementations, kept as test oracles:
// the per-line strings/strconv text parser, the binary-search validator of
// a restored vertex list and the binary.Varint edge decoder. The
// differential tests in loader_test.go require the production code to agree
// with them on every result and every error.

// streamEdgeListRef is StreamEdgeList as it was: Scanner.Text,
// strings.Fields and strconv.ParseInt per line. Like the parser, it refuses
// a third field.
func streamEdgeListRef(r io.Reader, fn func(edges []Edge) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	edges := make([]Edge, 0, streamBatchEdges)
	flush := func() error {
		if len(edges) == 0 {
			return nil
		}
		err := fn(edges)
		edges = edges[:0]
		return err
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: expected \"src dst\", got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad source vertex %q: %w", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad destination vertex %q: %w", lineNo, fields[1], err)
		}
		if len(fields) >= 3 {
			return fmt.Errorf("graph: line %d: unexpected third field %q: edge weights are not supported", lineNo, fields[2])
		}
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(dst)})
		if len(edges) == streamBatchEdges {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return flush()
}

// checkRestoredVertsRef is the validation FromEdgesAndVertices used to run:
// a binary search of the vertex list per edge endpoint.
func checkRestoredVertsRef(edges []Edge, verts []VertexID) error {
	if len(verts) > 0 && verts[0] < 0 {
		return fmt.Errorf("graph: restored vertex list has negative vertex ID %d", verts[0])
	}
	for i := 1; i < len(verts); i++ {
		if verts[i] <= verts[i-1] {
			return fmt.Errorf("graph: restored vertex list not strictly ascending at index %d", i)
		}
	}
	// Membership + coverage: every endpoint must be listed, every listed
	// vertex must be an endpoint. Dense ID spaces (all generators in this
	// module) take the O(1)-per-endpoint fast path.
	used := make([]bool, len(verts))
	dense := len(verts) > 0 && verts[0] == 0 && verts[len(verts)-1] == VertexID(len(verts)-1)
	locate := func(v VertexID) int {
		if dense {
			if v < 0 || int(v) >= len(verts) {
				return -1
			}
			return int(v)
		}
		if i, ok := slices.BinarySearch(verts, v); ok {
			return i
		}
		return -1
	}
	for i, e := range edges {
		si, di := locate(e.Src), locate(e.Dst)
		if si < 0 || di < 0 {
			return fmt.Errorf("graph: edge %d (%d -> %d) has an endpoint missing from the restored vertex list", i, e.Src, e.Dst)
		}
		used[si] = true
		used[di] = true
	}
	for i, u := range used {
		if !u {
			return fmt.Errorf("graph: restored vertex list entry %d (vertex %d) appears in no edge", i, verts[i])
		}
	}
	return nil
}

// decodeEdgesRef is decodeEdgesInto as it was: binary.Varint per field.
func decodeEdgesRef(data []byte) ([]Edge, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("graph: reading edge count: malformed varint")
	}
	data = data[n:]
	if count > uint64(len(data))/2+1 {
		return nil, fmt.Errorf("graph: edge count %d exceeds payload size", count)
	}
	edges := make([]Edge, 0, count)
	var prevSrc int64
	for i := uint64(0); i < count; i++ {
		ds, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("graph: edge %d: reading src: malformed varint", i)
		}
		data = data[n:]
		src := prevSrc + ds
		dd, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("graph: edge %d: reading dst: malformed varint", i)
		}
		data = data[n:]
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(src + dd)})
		prevSrc = src
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("graph: %d trailing bytes after edge payload", len(data))
	}
	return edges, nil
}
