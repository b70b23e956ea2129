package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

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
	// Optional trailing section, written only when the graph carries
	// tombstones — an untombstoned graph encodes byte-identically to
	// format-version-1 snapshots that predate it.
	secGraphTombstones = 5

	// Section 4 of a graph or metrics container is reserved for per-edge
	// weights and their metrics. Edges have no weight: a container that
	// carries it is refused (refuseWeights).
	secWeights = 4

	secAssignPIDs = 2
	secAssignHist = 3

	secMetricsEdges = 2
	secMetricsVerts = 3

	secTopoAssign = 2
	// The partition tables (pregel.PartTables), in a topology and a shard
	// alike.
	secPartStart    = 3
	secEdgeSrc      = 4
	secEdgeDst      = 5
	secLocalOffsets = 6
	secLocalVerts   = 7

	secBlockVerts = 2
	secBlockIndex = 3
	// Optional: present only when the graph carries tombstones.
	secBlockTombstones = 4
)

// maxNumParts caps the partition count a topology or a shard may declare:
// its readers size per-partition tables by the count before any partition
// has been seen.
const maxNumParts = 1 << 20

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

// decodeLocalEdges pairs the EdgeSrc and EdgeDst sections, two aligned
// little-endian int32 arrays, into one edge array.
func decodeLocalEdges(src, dst []byte) ([]pregel.LocalEdge, error) {
	if len(src)%4 != 0 || len(src) != len(dst) {
		return nil, fmt.Errorf("snap: EdgeSrc and EdgeDst sections of %d and %d bytes are not aligned int32 arrays", len(src), len(dst))
	}
	out := make([]pregel.LocalEdge, len(src)/4)
	for i := range out {
		out[i].Src = int32(binary.LittleEndian.Uint32(src[4*i:]))
		out[i].Dst = int32(binary.LittleEndian.Uint32(dst[4*i:]))
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

// refuseWeights refuses a graph or metrics container carrying the weight
// section (secWeights).
func refuseWeights(c *Container, kind string) error {
	if _, ok := c.Section(secWeights); ok {
		return fmt.Errorf("snap: %s container carries a weight section (section %d): edge weights are not supported", kind, secWeights)
	}
	return nil
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

// decodePIDs decodes a PID section of one entry per dense edge slot of the
// graph id names, in one pass: convert, range-check against numParts and
// count each partition's live edges. The width follows pidWidth(numParts).
func decodePIDs(p []byte, numParts int, id *GraphIdentity) ([]partition.PID, []int64, error) {
	w := pidWidth(numParts)
	if len(p)%w != 0 {
		return nil, nil, fmt.Errorf("snap: PID section length %d not a multiple of width %d", len(p), w)
	}
	if n := len(p) / w; n != id.NumEdges {
		return nil, nil, fmt.Errorf("snap: PID section holds %d entries, graph has %d edges", n, id.NumEdges)
	}
	out := make([]partition.PID, len(p)/w)
	counts := make([]int64, numParts)
	for i := range out {
		var v uint32
		switch w {
		case 1:
			v = uint32(p[i])
		case 2:
			v = uint32(binary.LittleEndian.Uint16(p[2*i:]))
		default:
			v = binary.LittleEndian.Uint32(p[4*i:])
		}
		if v >= uint32(numParts) {
			return nil, nil, fmt.Errorf("snap: edge %d assigned to out-of-range partition %d", i, int32(v))
		}
		out[i] = partition.PID(v)
		counts[v]++
	}
	// Tombstoned slots were counted above; take them back off.
	for wi, word := range id.dead {
		for ; word != 0; word &= word - 1 {
			if i := wi*64 + bits.TrailingZeros64(word); i < len(out) {
				counts[out[i]]--
			}
		}
	}
	return out, counts, nil
}

// ---- graph codec -----------------------------------------------------------

// EncodeGraph encodes g as a KindGraph container: a meta section (vertex
// and dense edge counts, content fingerprint), the sorted vertex list
// (delta uvarints) and the full dense edge list (graph.EncodeEdges delta
// varints, tombstoned slots included so positions survive the round trip),
// read a block at a time so a block-backed graph stays unmaterialized.
// The tombstone bitset rides in an optional trailing section written only
// when present, so fully-live graphs keep their original byte encoding.
func EncodeGraph(g *graph.Graph) []byte {
	verts := g.Vertices()
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(verts)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.NumEdges()))
	meta = binary.LittleEndian.AppendUint64(meta, g.Fingerprint())

	b := NewBuilder(KindGraph)
	b.Section(secMeta, meta)
	b.Section(secGraphVerts, encodeVertexList(verts))
	b.Section(secGraphEdges, g.AppendEncodedEdges(nil))
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

// GraphIdentity is what an artifact records of the graph it was computed
// for, and what its decoder checks it against. IdentityOf reads it off a
// live graph; OpenGraph reads it from a graph record before any edge is
// decoded, and the record decodes only if its graph matches it.
type GraphIdentity struct {
	NumVertices, NumEdges int
	Fingerprint           uint64
	dead                  []uint64 // the tombstone set: slots no per-partition count includes
	numDead               int
}

// IdentityOf is g's identity.
func IdentityOf(g *graph.Graph) GraphIdentity {
	return GraphIdentity{g.NumVertices(), g.NumEdges(), g.Fingerprint(), g.Tombstones(), g.NumDeadEdges()}
}

// GraphRecord is a graph container whose identity has been read and whose
// vertex and edge lists are not yet decoded.
type GraphRecord struct {
	Identity GraphIdentity
	c        *Container
}

// OpenGraph checks a KindGraph container's CRCs and reads its identity
// from the meta and tombstone sections.
func OpenGraph(data []byte) (*GraphRecord, error) {
	c, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := expectKind(c, KindGraph); err != nil {
		return nil, err
	}
	if err := refuseWeights(c, "graph"); err != nil {
		return nil, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return nil, err
	}
	mr := &fieldReader{b: msec}
	numVerts, numEdges, fp := mr.u64(), mr.u64(), mr.u64()
	if err := mr.finish(); err != nil {
		return nil, err
	}
	r := &GraphRecord{GraphIdentity{NumVertices: int(numVerts), NumEdges: int(numEdges), Fingerprint: fp}, c}
	if tsec, ok := c.Section(secGraphTombstones); ok {
		if r.Identity.dead, r.Identity.numDead, err = decodeTombstones(tsec, r.Identity.NumEdges); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Decode decodes the record's graph: the vertex list against the edge list
// (graph.FromEdgesAndVertices, which folds the fingerprint as it decodes),
// both counts and the recomputed fingerprint against the identity. The
// graph has its vertex view and fingerprint pre-seeded.
func (r *GraphRecord) Decode() (*graph.Graph, error) {
	id := &r.Identity
	vsec, err := section(r.c, secGraphVerts, "vertex list")
	if err != nil {
		return nil, err
	}
	verts, err := decodeVertexList(vsec, uint64(id.NumVertices))
	if err != nil {
		return nil, err
	}
	esec, err := section(r.c, secGraphEdges, "edge list")
	if err != nil {
		return nil, err
	}
	g, err := graph.FromEdgesAndVertices(esec, verts, id.dead, id.numDead)
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != id.NumEdges {
		return nil, fmt.Errorf("snap: edge list holds %d entries, meta says %d", g.NumEdges(), id.NumEdges)
	}
	// The fingerprint is canonical over edges and the tombstone set, so
	// matching it proves both sections round-tripped.
	if g.Fingerprint() != id.Fingerprint {
		return nil, fmt.Errorf("snap: graph fingerprint mismatch: decoded %016x, recorded %016x", g.Fingerprint(), id.Fingerprint)
	}
	return g, nil
}

// DecodeGraph decodes a KindGraph container: OpenGraph, then Decode.
func DecodeGraph(data []byte) (*graph.Graph, error) {
	r, err := OpenGraph(data)
	if err != nil {
		return nil, err
	}
	return r.Decode()
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
// belong to: the recorded edge count and content fingerprint must match.
func checkGraphIdentity(id *GraphIdentity, numEdges, fp uint64, what string) error {
	if numEdges != uint64(id.NumEdges) {
		return fmt.Errorf("snap: %s was computed for a graph with %d edges, this graph has %d", what, numEdges, id.NumEdges)
	}
	if fp != id.Fingerprint {
		return fmt.Errorf("snap: %s graph fingerprint mismatch: recorded %016x, graph has %016x", what, fp, id.Fingerprint)
	}
	return nil
}

// Unbound is an artifact decoded and checked against a graph identity.
// Bind attaches it to the graph of that identity, once that graph exists.
type Unbound struct {
	NumParts int
	Bind     func(g *graph.Graph) any
}

// DecodeArtifact decodes an artifact container of the given stage against
// id, the identity of the graph it belongs to, with every check the
// stage's decoder (DecodeAssignment, DecodeMetrics, DecodeTopology)
// makes. opts is the restoring side's build policy for a topology.
func DecodeArtifact(stage Stage, data []byte, id GraphIdentity, wantStrategyKey string, opts pregel.BuildOptions) (Unbound, error) {
	c, err := Decode(data)
	if err != nil {
		return Unbound{}, err
	}
	switch stage {
	case StageAssignment:
		return decodeAssignmentContainer(c, &id, wantStrategyKey)
	case StageMetrics:
		return decodeMetricsContainer(c, &id, wantStrategyKey)
	case StageTopology:
		return decodeTopologyContainer(c, &id, wantStrategyKey, opts)
	}
	return Unbound{}, fmt.Errorf("snap: unknown stage %d", stage)
}

// decodeBound decodes an artifact container against the live graph g.
func decodeBound[T any](stage Stage, data []byte, g *graph.Graph, wantStrategyKey string, opts pregel.BuildOptions) (T, error) {
	var t T
	u, err := DecodeArtifact(stage, data, IdentityOf(g), wantStrategyKey, opts)
	if err == nil {
		t = u.Bind(g).(T)
	}
	return t, err
}

// ---- assignment codec ------------------------------------------------------

// EncodeAssignment encodes a as a KindAssignment container: strategy name
// and cache key, partition count, graph identity (edge count, fingerprint),
// the raw PID slice and the per-partition histogram. Retained streaming
// state is deliberately not persisted — a restored assignment Extends via
// the deterministic replay path.
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
	return decodeBound[*partition.Assignment](StageAssignment, data, g, wantStrategyKey, pregel.BuildOptions{})
}

func decodeAssignmentContainer(c *Container, id *GraphIdentity, wantStrategyKey string) (Unbound, error) {
	if err := expectKind(c, KindAssignment); err != nil {
		return Unbound{}, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return Unbound{}, err
	}
	mr := &fieldReader{b: msec}
	numParts := mr.u32()
	numEdges := mr.u64()
	fp := mr.u64()
	name := mr.str()
	strategyKey := mr.str()
	if err := mr.finish(); err != nil {
		return Unbound{}, err
	}
	if err := checkGraphIdentity(id, numEdges, fp, "assignment"); err != nil {
		return Unbound{}, err
	}
	if err := checkStrategyKey(strategyKey, wantStrategyKey, "assignment"); err != nil {
		return Unbound{}, err
	}
	if numParts == 0 || numParts > maxNumParts {
		return Unbound{}, fmt.Errorf("snap: assignment numParts %d out of range", numParts)
	}
	psec, err := section(c, secAssignPIDs, "PID")
	if err != nil {
		return Unbound{}, err
	}
	// One pass converts, range-checks and recounts the live histogram.
	pids, counts, err := decodePIDs(psec, int(numParts), id)
	if err != nil {
		return Unbound{}, err
	}
	hsec, err := section(c, secAssignHist, "histogram")
	if err != nil {
		return Unbound{}, err
	}
	if len(hsec) != 8*int(numParts) {
		return Unbound{}, fmt.Errorf("snap: histogram section holds %d partitions, want %d", len(hsec)/8, numParts)
	}
	for p := range counts {
		if want := binary.LittleEndian.Uint64(hsec[8*p:]); uint64(counts[p]) != want {
			return Unbound{}, fmt.Errorf("snap: partition %d recounts %d edges, recorded histogram says %d", p, counts[p], want)
		}
	}
	return Unbound{int(numParts), func(g *graph.Graph) any {
		return partition.RestoreAssignmentCounted(g, name, strategyKey, pids, counts, int(numParts))
	}}, nil
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
	return b.Bytes()
}

// DecodeMetrics decodes a KindMetrics container against g, validating the
// graph identity, the recorded strategy cache key against wantStrategyKey
// ("" skips the check), and the counting invariants (counts fit,
// NonCut+Cut within the vertex count, total mirror slots equal
// CommCost+NonCut, edges sum to the graph's edge count) before recomputing
// the derived fields.
func DecodeMetrics(data []byte, g *graph.Graph, wantStrategyKey string) (*metrics.Result, error) {
	return decodeBound[*metrics.Result](StageMetrics, data, g, wantStrategyKey, pregel.BuildOptions{})
}

func decodeMetricsContainer(c *Container, id *GraphIdentity, wantStrategyKey string) (Unbound, error) {
	if err := expectKind(c, KindMetrics); err != nil {
		return Unbound{}, err
	}
	if err := refuseWeights(c, "metrics"); err != nil {
		return Unbound{}, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return Unbound{}, err
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
		return Unbound{}, err
	}
	if err := checkGraphIdentity(id, numEdges, fp, "metrics"); err != nil {
		return Unbound{}, err
	}
	if err := checkStrategyKey(strategyKey, wantStrategyKey, "metrics"); err != nil {
		return Unbound{}, err
	}
	if numVerts != uint64(id.NumVertices) {
		return Unbound{}, fmt.Errorf("snap: metrics recorded for %d vertices, graph has %d", numVerts, id.NumVertices)
	}
	if numParts <= 0 {
		return Unbound{}, fmt.Errorf("snap: metrics numParts must be positive, got %d", numParts)
	}
	if nonCut > math.MaxInt64 || cut > math.MaxInt64 || commCost > math.MaxInt64 {
		return Unbound{}, fmt.Errorf("snap: metrics counter overflows int64")
	}
	if nonCut+cut > numVerts {
		return Unbound{}, fmt.Errorf("snap: NonCut+Cut = %d exceeds %d vertices", nonCut+cut, numVerts)
	}
	esec, err := section(c, secMetricsEdges, "edges-per-partition")
	if err != nil {
		return Unbound{}, err
	}
	edgesPerPart, err := decodeI64s(esec, "edges-per-partition")
	if err != nil {
		return Unbound{}, err
	}
	vsec, err := section(c, secMetricsVerts, "vertices-per-partition")
	if err != nil {
		return Unbound{}, err
	}
	vertsPerPart, err := decodeI64s(vsec, "vertices-per-partition")
	if err != nil {
		return Unbound{}, err
	}
	if len(edgesPerPart) != numParts || len(vertsPerPart) != numParts {
		return Unbound{}, fmt.Errorf("snap: per-partition sections hold %d/%d entries, want %d", len(edgesPerPart), len(vertsPerPart), numParts)
	}
	var edgeSum, mirrorSum int64
	for p := 0; p < numParts; p++ {
		if edgesPerPart[p] < 0 || vertsPerPart[p] < 0 {
			return Unbound{}, fmt.Errorf("snap: negative per-partition count at partition %d", p)
		}
		edgeSum += edgesPerPart[p]
		mirrorSum += vertsPerPart[p]
	}
	// Metrics count live edges only, so on a tombstoned graph the
	// per-partition totals sum below the dense edge count.
	if live := id.NumEdges - id.numDead; edgeSum != int64(live) {
		return Unbound{}, fmt.Errorf("snap: per-partition edges sum to %d, graph has %d live edges", edgeSum, live)
	}
	if mirrorSum != int64(commCost+nonCut) {
		return Unbound{}, fmt.Errorf("snap: %d mirror slots but CommCost+NonCut = %d", mirrorSum, commCost+nonCut)
	}
	res := &metrics.Result{
		NumParts:        numParts,
		NonCut:          int64(nonCut),
		Cut:             int64(cut),
		CommCost:        int64(commCost),
		EdgesPerPart:    edgesPerPart,
		VerticesPerPart: vertsPerPart,
	}
	res.Finalize(int(numVerts))
	// A metric set holds no reference to its graph: binding attaches nothing.
	return Unbound{numParts, func(*graph.Graph) any { return res }}, nil
}

// ---- topology codec --------------------------------------------------------

// EncodeTopology encodes a built PartitionedGraph as a KindTopology
// container: the dense tables of pregel.RawTables written verbatim as
// little-endian arrays, plus the graph identity. Two things are
// deliberately not persisted: build options (buffer reuse —
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
	addPartTables(b, &rt.PartTables)
	return b.Bytes()
}

// addPartTables writes the five partition-table sections, ids 3–7 in order.
func addPartTables(b *Builder, pt *pregel.PartTables) {
	b.Section(secPartStart, encodeI64s(pt.PartStart))
	src := make([]byte, 0, 4*len(pt.Edges))
	dst := make([]byte, 0, 4*len(pt.Edges))
	for _, e := range pt.Edges {
		src = binary.LittleEndian.AppendUint32(src, uint32(e.Src))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Dst))
	}
	b.Section(secEdgeSrc, src)
	b.Section(secEdgeDst, dst)
	b.Section(secLocalOffsets, encodeI64s(pt.LocalVertsOffsets))
	b.Section(secLocalVerts, encodeI32s(pt.LocalVerts))
}

// readPartTables reads the five partition-table sections back, the two edge
// halves straight into the one edge array the partitions keep. Their
// structure is checked by pregel.PartTables.Partitions, not here.
func readPartTables(c *Container) (pregel.PartTables, error) {
	var pt pregel.PartTables
	var err error
	get := func(id uint32, name string) []byte {
		var p []byte
		if err == nil {
			p, err = section(c, id, name)
		}
		return p
	}
	i32 := func(id uint32, name string) (out []int32) {
		if p := get(id, name); err == nil {
			out, err = decodeI32s(p, name)
		}
		return out
	}
	i64 := func(id uint32, name string) (out []int64) {
		if p := get(id, name); err == nil {
			out, err = decodeI64s(p, name)
		}
		return out
	}
	pt.PartStart = i64(secPartStart, "PartStart")
	src, dst := get(secEdgeSrc, "EdgeSrc"), get(secEdgeDst, "EdgeDst")
	if err == nil {
		pt.Edges, err = decodeLocalEdges(src, dst)
	}
	pt.LocalVertsOffsets = i64(secLocalOffsets, "LocalVertsOffsets")
	pt.LocalVerts = i32(secLocalVerts, "LocalVerts")
	return pt, err
}

// DecodeTopology decodes a KindTopology container against g — one big read
// into the raw tables, then pregel.FromRawTables' full invariant validation
// assembles the engine-ready topology without re-sorting anything. The
// recorded strategy key must match wantStrategyKey ("" skips). opts is the
// restoring side's build/execution policy.
func DecodeTopology(data []byte, g *graph.Graph, wantStrategyKey string, opts pregel.BuildOptions) (*pregel.PartitionedGraph, error) {
	return decodeBound[*pregel.PartitionedGraph](StageTopology, data, g, wantStrategyKey, opts)
}

func decodeTopologyContainer(c *Container, id *GraphIdentity, wantStrategyKey string, opts pregel.BuildOptions) (Unbound, error) {
	if err := expectKind(c, KindTopology); err != nil {
		return Unbound{}, err
	}
	msec, err := section(c, secMeta, "meta")
	if err != nil {
		return Unbound{}, err
	}
	mr := &fieldReader{b: msec}
	numParts := int(mr.u32())
	numEdges := mr.u64()
	numVerts := mr.u64()
	fp := mr.u64()
	strategyKey := mr.str()
	if err := mr.finish(); err != nil {
		return Unbound{}, err
	}
	if err := checkGraphIdentity(id, numEdges, fp, "topology"); err != nil {
		return Unbound{}, err
	}
	if err := checkStrategyKey(strategyKey, wantStrategyKey, "topology"); err != nil {
		return Unbound{}, err
	}
	if numVerts != uint64(id.NumVertices) {
		return Unbound{}, fmt.Errorf("snap: topology recorded for %d vertices, graph has %d", numVerts, id.NumVertices)
	}

	psec, err := section(c, secTopoAssign, "assignment")
	if err != nil {
		return Unbound{}, err
	}
	if numParts <= 0 || numParts > maxNumParts {
		return Unbound{}, fmt.Errorf("snap: topology numParts %d out of range", numParts)
	}
	rt := pregel.RawTables{NumParts: numParts}
	// The one pass over the PIDs: range checks and each partition's live
	// edge count, which FromRawTables holds the edge tables to.
	var counts []int64
	if rt.Assign, counts, err = decodePIDs(psec, numParts, id); err != nil {
		return Unbound{}, err
	}
	if rt.PartTables, err = readPartTables(c); err != nil {
		return Unbound{}, err
	}
	pg, err := pregel.FromRawTables(id.NumVertices, rt, counts, opts)
	if err != nil {
		return Unbound{}, err
	}
	return Unbound{numParts, func(g *graph.Graph) any {
		pg.G = g
		return pg
	}}, nil
}
