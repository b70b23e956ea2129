package snap

import (
	"encoding/binary"
	"fmt"
	"math"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// Section ids. Ids are per-kind; the meta section is always 1.
const (
	secMeta = 1

	secGraphVerts = 2
	secGraphEdges = 3
	// Optional trailing sections, written only when the graph carries the
	// feature — an unweighted, untombstoned graph encodes byte-identically
	// to format-version-1 snapshots that predate them.
	secGraphWeights    = 4
	secGraphTombstones = 5

	secAssignPIDs = 2
	secAssignHist = 3

	secMetricsEdges = 2
	secMetricsVerts = 3
	// Optional: weighted counterparts, written only for weighted graphs.
	secMetricsWeights = 4

	secTopoAssign       = 2
	secTopoPartStart    = 3
	secTopoEdgeSrc      = 4
	secTopoEdgeDst      = 5
	secTopoLocalOffsets = 6
	secTopoLocalVerts   = 7

	secBlockVerts = 2
	secBlockIndex = 3
	// Optional: present only when the graph carries tombstones.
	secBlockTombstones = 4
)

// ---- field-level primitives ----------------------------------------------

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendBlob(dst, p []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

// fieldReader is a bounds-checked cursor over one section payload with a
// sticky error, so decoders read fields linearly and check once.
type fieldReader struct {
	b   []byte
	off int
	err error
}

func (r *fieldReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (r *fieldReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("section truncated: need %d bytes, have %d", n, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *fieldReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *fieldReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *fieldReader) str() string {
	n := r.u32()
	return string(r.take(int(n)))
}

func (r *fieldReader) blob() []byte {
	n := r.u32()
	return r.take(int(n))
}

// finish rejects unread trailing bytes — every section must be consumed
// exactly.
func (r *fieldReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("snap: %d trailing bytes in section", len(r.b)-r.off)
	}
	return nil
}

// ---- fixed-width array sections -------------------------------------------

func encodeI32s(vals []int32) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

func decodeI32s(p []byte, name string) ([]int32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("snap: %s section length %d not a multiple of 4", name, len(p))
	}
	out := make([]int32, len(p)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[:4]))
		p = p[4:]
	}
	return out, nil
}

func encodeI64s(vals []int64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func encodeF64s(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func decodeF64s(p []byte, name string) ([]float64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("snap: %s section length %d not a multiple of 8", name, len(p))
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
		p = p[8:]
	}
	return out, nil
}

func decodeI64s(p []byte, name string) ([]int64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("snap: %s section length %d not a multiple of 8", name, len(p))
	}
	out := make([]int64, len(p)/8)
	for i := range out {
		v := binary.LittleEndian.Uint64(p[:8])
		p = p[8:]
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("snap: %s entry %d overflows int64", name, i)
		}
		out[i] = int64(v)
	}
	return out, nil
}

// pidWidth is the per-entry byte width of a PID section: the narrowest
// unsigned width that fits every valid PID for the partition count. The
// decoder derives it from the meta section's numParts, so it is never
// ambiguous.
func pidWidth(numParts int) int {
	switch {
	case numParts <= 1<<8:
		return 1
	case numParts <= 1<<16:
		return 2
	default:
		return 4
	}
}

func encodePIDs(pids []partition.PID, numParts int) []byte {
	switch pidWidth(numParts) {
	case 1:
		out := make([]byte, len(pids))
		for i, p := range pids {
			out[i] = byte(p)
		}
		return out
	case 2:
		out := make([]byte, 0, 2*len(pids))
		for _, p := range pids {
			out = binary.LittleEndian.AppendUint16(out, uint16(p))
		}
		return out
	default:
		out := make([]byte, 0, 4*len(pids))
		for _, p := range pids {
			out = binary.LittleEndian.AppendUint32(out, uint32(p))
		}
		return out
	}
}

// decodePIDsValidated decodes a PID section in one fused pass: convert,
// range-validate against numParts, and (when counts is non-nil, sized
// numParts) histogram-count. The entry width follows pidWidth(numParts).
func decodePIDsValidated(p []byte, numParts int, counts []int64) ([]partition.PID, error) {
	w := pidWidth(numParts)
	if len(p)%w != 0 {
		return nil, fmt.Errorf("snap: PID section length %d not a multiple of width %d", len(p), w)
	}
	out := make([]partition.PID, len(p)/w)
	for i := range out {
		var v uint32
		switch w {
		case 1:
			v = uint32(p[0])
		case 2:
			v = uint32(binary.LittleEndian.Uint16(p[:2]))
		default:
			v = binary.LittleEndian.Uint32(p[:4])
		}
		p = p[w:]
		if v >= uint32(numParts) {
			return nil, fmt.Errorf("snap: edge %d assigned to out-of-range partition %d", i, int32(v))
		}
		out[i] = partition.PID(v)
		if counts != nil {
			counts[v]++
		}
	}
	return out, nil
}

// ---- graph codec -----------------------------------------------------------

// EncodeGraph encodes g as a KindGraph container: a meta section (vertex
// and dense edge counts, content fingerprint), the sorted vertex list
// (delta uvarints) and the full dense edge list (graph.EncodeEdges delta
// varints, tombstoned slots included so positions survive the round trip).
// Per-edge weights and the tombstone bitset ride in optional trailing
// sections written only when present, so unweighted fully-live graphs keep
// their original byte encoding. The process-local Version is deliberately
// not persisted — restored graphs start at a fresh generation version of
// their own.
func EncodeGraph(g *graph.Graph) []byte {
	verts := g.Vertices()
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(verts)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.NumEdges()))
	meta = binary.LittleEndian.AppendUint64(meta, g.Fingerprint())

	b := NewBuilder(KindGraph)
	b.Section(secMeta, meta)
	b.Section(secGraphVerts, encodeVertexList(verts))
	b.Section(secGraphEdges, graph.EncodeEdges(nil, g.Edges()))
	if w := g.Weights(); w != nil {
		b.Section(secGraphWeights, encodeF64s(w))
	}
	if g.NumDeadEdges() > 0 {
		b.Section(secGraphTombstones, encodeTombstones(g))
	}
	return b.Bytes()
}

// encodeVertexList packs a sorted vertex list as delta uvarints.
func encodeVertexList(verts []graph.VertexID) []byte {
	var vsec []byte
	var buf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, v := range verts {
		n := binary.PutUvarint(buf[:], uint64(int64(v)-prev))
		vsec = append(vsec, buf[:n]...)
		prev = int64(v)
	}
	return vsec
}

// decodeVertexList unpacks a delta-uvarint vertex list, validating that it
// ascends strictly (only the first delta, the first ID itself, may be zero)
// and the entry count against the recorded meta count.
func decodeVertexList(vsec []byte, numVerts uint64) ([]graph.VertexID, error) {
	if numVerts > uint64(len(vsec)) { // each vertex costs at least one byte
		return nil, fmt.Errorf("snap: vertex count %d exceeds section size", numVerts)
	}
	verts := make([]graph.VertexID, 0, numVerts)
	prev := int64(0)
	for len(vsec) > 0 {
		d, n := binary.Uvarint(vsec)
		if n <= 0 {
			return nil, fmt.Errorf("snap: malformed vertex delta at entry %d", len(verts))
		}
		vsec = vsec[n:]
		if d == 0 && len(verts) > 0 {
			return nil, fmt.Errorf("snap: vertex list repeats vertex %d at entry %d", prev, len(verts))
		}
		if d > math.MaxInt64-uint64(prev) {
			return nil, fmt.Errorf("snap: vertex delta overflows at entry %d", len(verts))
		}
		prev += int64(d)
		verts = append(verts, graph.VertexID(prev))
	}
	if uint64(len(verts)) != numVerts {
		return nil, fmt.Errorf("snap: vertex list holds %d entries, meta says %d", len(verts), numVerts)
	}
	return verts, nil
}

// encodeTombstones packs the dead-edge count and the position-indexed
// tombstone bitset words.
func encodeTombstones(g *graph.Graph) []byte {
	var tsec []byte
	tsec = binary.LittleEndian.AppendUint64(tsec, uint64(g.NumDeadEdges()))
	for _, word := range g.Tombstones() {
		tsec = binary.LittleEndian.AppendUint64(tsec, word)
	}
	return tsec
}

// decodeTombstones unpacks a tombstone section for a graph of numEdges
// dense slots.
func decodeTombstones(tsec []byte, numEdges int) ([]uint64, int, error) {
	tr := &fieldReader{b: tsec}
	numDead := tr.u64()
	if tr.err != nil {
		return nil, 0, tr.err
	}
	rest := len(tsec) - tr.off
	if rest%8 != 0 {
		return nil, 0, fmt.Errorf("snap: tombstone bitset length %d not a multiple of 8", rest)
	}
	dead := make([]uint64, rest/8)
	for i := range dead {
		dead[i] = tr.u64()
	}
	if err := tr.finish(); err != nil {
		return nil, 0, err
	}
	if numDead > uint64(numEdges) {
		return nil, 0, fmt.Errorf("snap: %d tombstoned edges exceeds %d edges", numDead, numEdges)
	}
	return dead, int(numDead), nil
}

// DecodeGraph decodes a KindGraph container, validating counts, the vertex
// list against the edge list (graph.FromEdgesAndVertices), and the content
// fingerprint. The restored graph has its vertex view pre-seeded and starts
// at a fresh process-unique version.
func DecodeGraph(data []byte) (*graph.Graph, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return decodeGraphContainer(c)
}

func decodeGraphContainer(c *Container) (*graph.Graph, error) {
	if err := expectKind(c, KindGraph); err != nil {
		return nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	numVerts := mr.u64()
	numEdges := mr.u64()
	fp := mr.u64()
	if err := mr.finish(); err != nil {
		return nil, err
	}

	vsec, err := section(c, secGraphVerts, "vertex list")
	if err != nil {
		return nil, err
	}
	verts, err := decodeVertexList(vsec, numVerts)
	if err != nil {
		return nil, err
	}

	esec, err := section(c, secGraphEdges, "edge list")
	if err != nil {
		return nil, err
	}
	edges, err := graph.DecodeEdges(esec)
	if err != nil {
		return nil, err
	}
	if uint64(len(edges)) != numEdges {
		return nil, fmt.Errorf("snap: edge list holds %d entries, meta says %d", len(edges), numEdges)
	}
	g, err := graph.FromEdgesAndVertices(edges, verts)
	if err != nil {
		return nil, err
	}
	if wsec, ok := c.Section(secGraphWeights); ok {
		weights, err := decodeF64s(wsec, "edge weights")
		if err != nil {
			return nil, err
		}
		if err := g.RestoreWeights(weights); err != nil {
			return nil, err
		}
	}
	if tsec, ok := c.Section(secGraphTombstones); ok {
		dead, numDead, err := decodeTombstones(tsec, len(edges))
		if err != nil {
			return nil, err
		}
		if err := g.RestoreTombstones(dead, numDead); err != nil {
			return nil, err
		}
	}
	// The fingerprint is canonical over edges, weights and the tombstone
	// set, so recomputing it here proves all three sections round-tripped.
	if g.Fingerprint() != fp {
		return nil, fmt.Errorf("snap: graph fingerprint mismatch: decoded %016x, recorded %016x", g.Fingerprint(), fp)
	}
	return g, nil
}

// checkStrategyKey pairs a decoded artifact with the strategy tuple it is
// being served for; want == "" skips the check (callers that only need the
// artifact, not a cache placement).
func checkStrategyKey(got, want, what string) error {
	if want != "" && got != want {
		return fmt.Errorf("snap: %s was computed for strategy %q, requested %q", what, got, want)
	}
	return nil
}

// checkGraphIdentity pairs a decoded artifact with the graph it claims to
// belong to: the recorded edge count and content fingerprint must match g.
func checkGraphIdentity(g *graph.Graph, numEdges, fp uint64, what string) error {
	if numEdges != uint64(g.NumEdges()) {
		return fmt.Errorf("snap: %s was computed for a graph with %d edges, this graph has %d", what, numEdges, g.NumEdges())
	}
	if fp != g.Fingerprint() {
		return fmt.Errorf("snap: %s graph fingerprint mismatch: recorded %016x, graph has %016x", what, fp, g.Fingerprint())
	}
	return nil
}

// ---- assignment codec ------------------------------------------------------

// EncodeAssignment encodes a as a KindAssignment container: strategy name
// and cache key, partition count, graph identity (edge count, fingerprint,
// version), the raw PID slice and the per-partition histogram. Retained
// streaming state is deliberately not persisted — a restored assignment
// Extends via the deterministic replay path.
func EncodeAssignment(a *partition.Assignment) []byte {
	var meta []byte
	meta = binary.LittleEndian.AppendUint32(meta, uint32(a.NumParts))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(a.PIDs)))
	meta = binary.LittleEndian.AppendUint64(meta, a.G.Fingerprint())
	meta = appendStr(meta, a.Strategy)
	meta = appendStr(meta, a.StrategyKey())

	b := NewBuilder(KindAssignment)
	b.Section(secMeta, meta)
	b.Section(secAssignPIDs, encodePIDs(a.PIDs, a.NumParts))
	b.Section(secAssignHist, encodeI64s(a.EdgesPerPart))
	return b.Bytes()
}

// DecodeAssignment decodes a KindAssignment container against g: the
// recorded graph identity must match, the recorded strategy cache key must
// match wantStrategyKey ("" skips), every PID is range-validated and the
// histogram is recounted and compared to the recorded one.
func DecodeAssignment(data []byte, g *graph.Graph, wantStrategyKey string) (*partition.Assignment, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return decodeAssignmentContainer(c, g, wantStrategyKey)
}

func decodeAssignmentContainer(c *Container, g *graph.Graph, wantStrategyKey string) (*partition.Assignment, error) {
	if err := expectKind(c, KindAssignment); err != nil {
		return nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	numParts := mr.u32()
	numEdges := mr.u64()
	fp := mr.u64()
	name := mr.str()
	strategyKey := mr.str()
	if err := mr.finish(); err != nil {
		return nil, err
	}
	if err := checkGraphIdentity(g, numEdges, fp, "assignment"); err != nil {
		return nil, err
	}
	if err := checkStrategyKey(strategyKey, wantStrategyKey, "assignment"); err != nil {
		return nil, err
	}
	if numParts == 0 || numParts > 1<<20 {
		return nil, fmt.Errorf("snap: assignment numParts %d out of range", numParts)
	}
	psec, err := section(c, secAssignPIDs, "PID")
	if err != nil {
		return nil, err
	}
	// One fused pass: convert, range-validate and recount the histogram.
	// The recorded histogram counts live edges only, so on a tombstoned
	// graph the recount runs separately and skips dead slots.
	counts := make([]int64, numParts)
	var pids []partition.PID
	if g.NumDeadEdges() != 0 {
		if pids, err = decodePIDsValidated(psec, int(numParts), nil); err != nil {
			return nil, err
		}
		if len(pids) != g.NumEdges() {
			return nil, fmt.Errorf("snap: PID section holds %d entries, graph has %d edges", len(pids), g.NumEdges())
		}
		for i, p := range pids {
			if g.EdgeAlive(i) {
				counts[p]++
			}
		}
	} else if pids, err = decodePIDsValidated(psec, int(numParts), counts); err != nil {
		return nil, err
	}
	hsec, err := section(c, secAssignHist, "histogram")
	if err != nil {
		return nil, err
	}
	if len(hsec) != 8*int(numParts) {
		return nil, fmt.Errorf("snap: histogram section holds %d partitions, want %d", len(hsec)/8, numParts)
	}
	for p := range counts {
		if want := binary.LittleEndian.Uint64(hsec[8*p:]); uint64(counts[p]) != want {
			return nil, fmt.Errorf("snap: partition %d recounts %d edges, recorded histogram says %d", p, counts[p], want)
		}
	}
	return partition.RestoreAssignmentCounted(g, name, strategyKey, pids, counts, int(numParts))
}

// ---- metrics codec ---------------------------------------------------------

// EncodeMetrics encodes m as a KindMetrics container. g supplies the graph
// identity the metric set was computed for and strategyKey the producing
// strategy's cache identity, so a decode can prove the artifact belongs to
// the tuple it is being served for (a relabeled container must never
// decode — CRC-32 is integrity, not authentication). The derived fields
// (Balance, PartStDev, replication factor) are not persisted — decode
// recomputes them through metrics.Result.Finalize, the same code every
// producer uses.
func EncodeMetrics(m *metrics.Result, g *graph.Graph, strategyKey string) []byte {
	var meta []byte
	meta = binary.LittleEndian.AppendUint32(meta, uint32(m.NumParts))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.NumVertices()))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.NumEdges()))
	meta = binary.LittleEndian.AppendUint64(meta, g.Fingerprint())
	meta = appendStr(meta, strategyKey)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(m.NonCut))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(m.Cut))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(m.CommCost))

	b := NewBuilder(KindMetrics)
	b.Section(secMeta, meta)
	b.Section(secMetricsEdges, encodeI64s(m.EdgesPerPart))
	b.Section(secMetricsVerts, encodeI64s(m.VerticesPerPart))
	if m.WeightPerPart != nil {
		// Optional trailing section: WeightedCommCost followed by the
		// per-partition weight totals. The weighted derived fields
		// (WeightedBalance, MaxWeight) are recomputed by Finalize on decode.
		wsec := binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.WeightedCommCost))
		wsec = append(wsec, encodeF64s(m.WeightPerPart)...)
		b.Section(secMetricsWeights, wsec)
	}
	return b.Bytes()
}

// DecodeMetrics decodes a KindMetrics container against g, validating the
// graph identity, the recorded strategy cache key against wantStrategyKey
// ("" skips the check), and the counting invariants (counts fit,
// NonCut+Cut within the vertex count, total mirror slots equal
// CommCost+NonCut, edges sum to the graph's edge count) before recomputing
// the derived fields.
func DecodeMetrics(data []byte, g *graph.Graph, wantStrategyKey string) (*metrics.Result, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return decodeMetricsContainer(c, g, wantStrategyKey)
}

func decodeMetricsContainer(c *Container, g *graph.Graph, wantStrategyKey string) (*metrics.Result, error) {
	if err := expectKind(c, KindMetrics); err != nil {
		return nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	numParts := int(mr.u32())
	numVerts := mr.u64()
	numEdges := mr.u64()
	fp := mr.u64()
	strategyKey := mr.str()
	nonCut := mr.u64()
	cut := mr.u64()
	commCost := mr.u64()
	if err := mr.finish(); err != nil {
		return nil, err
	}
	if err := checkGraphIdentity(g, numEdges, fp, "metrics"); err != nil {
		return nil, err
	}
	if err := checkStrategyKey(strategyKey, wantStrategyKey, "metrics"); err != nil {
		return nil, err
	}
	if numVerts != uint64(g.NumVertices()) {
		return nil, fmt.Errorf("snap: metrics recorded for %d vertices, graph has %d", numVerts, g.NumVertices())
	}
	if numParts <= 0 {
		return nil, fmt.Errorf("snap: metrics numParts must be positive, got %d", numParts)
	}
	if nonCut > math.MaxInt64 || cut > math.MaxInt64 || commCost > math.MaxInt64 {
		return nil, fmt.Errorf("snap: metrics counter overflows int64")
	}
	if nonCut+cut > numVerts {
		return nil, fmt.Errorf("snap: NonCut+Cut = %d exceeds %d vertices", nonCut+cut, numVerts)
	}
	esec, err := section(c, secMetricsEdges, "edges-per-partition")
	if err != nil {
		return nil, err
	}
	edgesPerPart, err := decodeI64s(esec, "edges-per-partition")
	if err != nil {
		return nil, err
	}
	vsec, err := section(c, secMetricsVerts, "vertices-per-partition")
	if err != nil {
		return nil, err
	}
	vertsPerPart, err := decodeI64s(vsec, "vertices-per-partition")
	if err != nil {
		return nil, err
	}
	if len(edgesPerPart) != numParts || len(vertsPerPart) != numParts {
		return nil, fmt.Errorf("snap: per-partition sections hold %d/%d entries, want %d", len(edgesPerPart), len(vertsPerPart), numParts)
	}
	var edgeSum, mirrorSum int64
	for p := 0; p < numParts; p++ {
		if edgesPerPart[p] < 0 || vertsPerPart[p] < 0 {
			return nil, fmt.Errorf("snap: negative per-partition count at partition %d", p)
		}
		edgeSum += edgesPerPart[p]
		mirrorSum += vertsPerPart[p]
	}
	// Metrics count live edges only, so on a tombstoned graph the
	// per-partition totals sum below the dense edge count.
	if edgeSum != int64(g.NumLiveEdges()) {
		return nil, fmt.Errorf("snap: per-partition edges sum to %d, graph has %d live edges", edgeSum, g.NumLiveEdges())
	}
	if mirrorSum != int64(commCost+nonCut) {
		return nil, fmt.Errorf("snap: %d mirror slots but CommCost+NonCut = %d", mirrorSum, commCost+nonCut)
	}
	res := &metrics.Result{
		NumParts:        numParts,
		NonCut:          int64(nonCut),
		Cut:             int64(cut),
		CommCost:        int64(commCost),
		EdgesPerPart:    edgesPerPart,
		VerticesPerPart: vertsPerPart,
	}
	if wsec, ok := c.Section(secMetricsWeights); ok {
		wvals, err := decodeF64s(wsec, "weighted metrics")
		if err != nil {
			return nil, err
		}
		if len(wvals) != numParts+1 {
			return nil, fmt.Errorf("snap: weighted metrics section holds %d values, want %d", len(wvals), numParts+1)
		}
		for i, v := range wvals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("snap: weighted metrics value %d is not finite and non-negative", i)
			}
		}
		res.WeightedCommCost = wvals[0]
		res.WeightPerPart = wvals[1:]
	}
	res.Finalize(int(numVerts))
	return res, nil
}

// ---- topology codec --------------------------------------------------------

// EncodeTopology encodes a built PartitionedGraph as a KindTopology
// container: the dense tables of pregel.RawTables written verbatim as
// little-endian arrays, plus the graph identity. Two things are
// deliberately not persisted: build options (parallelism, buffer reuse —
// execution policy, the restoring side applies its own) and per-vertex
// replica counts, which are a pure function of the mirror tables; a reader
// counts them off the restored tables (O(|V| + mirrors), no sort), which is
// cheaper than reading, CRC-checking and validating a persisted copy, and
// removes a whole class of forgeable tables. strategyKey
// records the producing strategy's cache identity so decode can reject a
// relabeled container.
func EncodeTopology(pg *pregel.PartitionedGraph, strategyKey string) []byte {
	rt := pg.RawTables()
	var meta []byte
	meta = binary.LittleEndian.AppendUint32(meta, uint32(rt.NumParts))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(rt.Assign)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(pg.G.NumVertices()))
	meta = binary.LittleEndian.AppendUint64(meta, pg.G.Fingerprint())
	meta = appendStr(meta, strategyKey)

	b := NewBuilder(KindTopology)
	b.Section(secMeta, meta)
	b.Section(secTopoAssign, encodePIDs(rt.Assign, rt.NumParts))
	b.Section(secTopoPartStart, encodeI64s(rt.PartStart))
	b.Section(secTopoEdgeSrc, encodeI32s(rt.EdgeSrc))
	b.Section(secTopoEdgeDst, encodeI32s(rt.EdgeDst))
	b.Section(secTopoLocalOffsets, encodeI64s(rt.LocalVertsOffsets))
	b.Section(secTopoLocalVerts, encodeI32s(rt.LocalVerts))
	return b.Bytes()
}

// DecodeTopology decodes a KindTopology container against g — one big read
// into the raw tables, then pregel.FromRawTables' full invariant validation
// assembles the engine-ready topology without re-sorting anything. The
// recorded strategy key must match wantStrategyKey ("" skips). opts is the
// restoring side's build/execution policy.
func DecodeTopology(data []byte, g *graph.Graph, wantStrategyKey string, opts pregel.BuildOptions) (*pregel.PartitionedGraph, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return decodeTopologyContainer(c, g, wantStrategyKey, opts)
}

func decodeTopologyContainer(c *Container, g *graph.Graph, wantStrategyKey string, opts pregel.BuildOptions) (*pregel.PartitionedGraph, error) {
	if err := expectKind(c, KindTopology); err != nil {
		return nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	numParts := int(mr.u32())
	numEdges := mr.u64()
	numVerts := mr.u64()
	fp := mr.u64()
	strategyKey := mr.str()
	if err := mr.finish(); err != nil {
		return nil, err
	}
	if err := checkGraphIdentity(g, numEdges, fp, "topology"); err != nil {
		return nil, err
	}
	if err := checkStrategyKey(strategyKey, wantStrategyKey, "topology"); err != nil {
		return nil, err
	}
	if numVerts != uint64(g.NumVertices()) {
		return nil, fmt.Errorf("snap: topology recorded for %d vertices, graph has %d", numVerts, g.NumVertices())
	}

	rt := pregel.RawTables{NumParts: numParts}
	var serr error
	i32 := func(id uint32, name string) []int32 {
		if serr != nil {
			return nil
		}
		var p []byte
		if p, serr = section(c, id, name); serr != nil {
			return nil
		}
		var out []int32
		out, serr = decodeI32s(p, name)
		return out
	}
	i64 := func(id uint32, name string) []int64 {
		if serr != nil {
			return nil
		}
		var p []byte
		if p, serr = section(c, id, name); serr != nil {
			return nil
		}
		var out []int64
		out, serr = decodeI64s(p, name)
		return out
	}
	psec, err := section(c, secTopoAssign, "assignment")
	if err != nil {
		return nil, err
	}
	if numParts <= 0 || numParts > 1<<20 {
		return nil, fmt.Errorf("snap: topology numParts %d out of range", numParts)
	}
	if rt.Assign, err = decodePIDsValidated(psec, numParts, nil); err != nil {
		return nil, err
	}
	rt.PartStart = i64(secTopoPartStart, "PartStart")
	rt.EdgeSrc = i32(secTopoEdgeSrc, "EdgeSrc")
	rt.EdgeDst = i32(secTopoEdgeDst, "EdgeDst")
	rt.LocalVertsOffsets = i64(secTopoLocalOffsets, "LocalVertsOffsets")
	rt.LocalVerts = i32(secTopoLocalVerts, "LocalVerts")
	if serr != nil {
		return nil, serr
	}
	return pregel.FromRawTables(g, rt, opts)
}
