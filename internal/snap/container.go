// Package snap is the durable artifact format of the serving stack: a
// versioned, length-prefixed, CRC-checked binary container plus codecs for
// every pipeline artifact — graph.Graph, partition.Assignment, the
// pregel.PartitionedGraph topology (its dense tables written verbatim, so
// restore is one big read + validation, never a re-sort), metrics.Result,
// and the whole-store bundle the Session snapshot uses.
//
// # Container layout (format version 1)
//
//	offset  size  field
//	0       8     magic 89 43 46 53 4E 41 50 0A ("\x89CFSNAP\n")
//	8       4     format version (u32 LE, currently 1)
//	12      4     artifact kind (u32 LE, Kind*)
//	16      4     section count (u32 LE, at most 64)
//	20      16×n  section table: per section id (u32), length (u64), CRC-32
//	              (IEEE) of the payload bytes
//	…       4     CRC-32 (IEEE) of everything above (magic through table)
//	…       …     section payloads, concatenated in table order
//
// All fixed-width integers are little-endian. Section ids are strictly
// ascending, making the encoding canonical: one artifact has exactly one
// byte representation, which is what lets the golden compatibility tests
// assert byte-identical re-encoding. Every byte of a container is covered
// by a CRC, so any single-byte corruption — header, table, or payload — is
// rejected at Decode; decoders additionally validate all structural
// invariants of the decoded artifact (PID ranges, CSR monotonicity, counts,
// graph fingerprints) before returning, so corrupt or mismatched input can
// never produce a wrong-but-plausible artifact.
//
// # Version policy
//
// Decode accepts exactly the format versions this build knows (currently
// only 1). Any change to the byte layout requires bumping FormatVersion and
// committing a new golden file set under testdata/golden/ — the CI compat
// step decodes the committed goldens of every released version, so an
// accidental layout change fails the PR.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// magic opens every snapshot container. The non-ASCII first byte and the
// trailing newline catch text-mode corruption early (as PNG's magic does).
var magic = [8]byte{0x89, 'C', 'F', 'S', 'N', 'A', 'P', 0x0A}

// FormatVersion is the container layout version this build writes.
const FormatVersion = 1

// Kind tags what artifact a container holds.
type Kind uint32

const (
	// KindGraph is a graph.Graph: edge list plus vertex list.
	KindGraph Kind = 1
	// KindAssignment is a partition.Assignment.
	KindAssignment Kind = 2
	// KindTopology is a built pregel.PartitionedGraph.
	KindTopology Kind = 3
	// KindMetrics is a metrics.Result.
	KindMetrics Kind = 4
	// KindStore is a whole-cache bundle: labeled graphs plus their cached
	// artifacts, each embedded as a nested container.
	KindStore Kind = 5
	// KindBlockGraph is a block-compressed graph: a container prefix
	// (meta, vertex list, block index, tombstones) followed by the raw
	// block payload region, served in place from the file by
	// OpenBlockGraph without a dense round-trip.
	KindBlockGraph Kind = 6
	// KindShard is one worker's slice of a partitioned topology — the
	// vertex table, out-degrees, the owned-partition list and a topology's
	// partition-table sections for those partitions — that the distributed
	// coordinator ships to a worker. A wire form only: never persisted.
	KindShard Kind = 7
)

func (k Kind) String() string {
	switch k {
	case KindGraph:
		return "graph"
	case KindAssignment:
		return "assignment"
	case KindTopology:
		return "topology"
	case KindMetrics:
		return "metrics"
	case KindStore:
		return "store"
	case KindBlockGraph:
		return "blockgraph"
	case KindShard:
		return "shard"
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

const (
	maxSections = 64
	headerFixed = 8 + 4 + 4 + 4 // magic + version + kind + section count
	tableEntry  = 4 + 8 + 4     // id + length + payload CRC
)

// Builder assembles one container. Sections must be added in strictly
// ascending id order (the canonical encoding); violating that is a
// programmer error and panics.
type Builder struct {
	kind     Kind
	ids      []uint32
	payloads [][]byte
}

// NewBuilder returns an empty container builder for the given kind.
func NewBuilder(kind Kind) *Builder { return &Builder{kind: kind} }

// Section appends one section. The payload is retained, not copied.
func (b *Builder) Section(id uint32, payload []byte) {
	if n := len(b.ids); n > 0 && b.ids[n-1] >= id {
		panic(fmt.Sprintf("snap: section id %d not ascending after %d", id, b.ids[n-1]))
	}
	if len(b.ids) >= maxSections {
		panic("snap: too many sections")
	}
	b.ids = append(b.ids, id)
	b.payloads = append(b.payloads, payload)
}

// Bytes encodes the container.
func (b *Builder) Bytes() []byte {
	total := headerFixed + len(b.ids)*tableEntry + 4
	for _, p := range b.payloads {
		total += len(p)
	}
	out := make([]byte, 0, total)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(b.kind))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.ids)))
	for i, id := range b.ids {
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(b.payloads[i])))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(b.payloads[i]))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	for _, p := range b.payloads {
		out = append(out, p...)
	}
	return out
}

// Container is a decoded, CRC-verified container.
type Container struct {
	// Kind is the artifact kind recorded in the header.
	Kind Kind
	// Version is the format version recorded in the header.
	Version uint32

	ids      []uint32
	sections [][]byte
}

// Section returns the payload of the section with the given id.
func (c *Container) Section(id uint32) ([]byte, bool) {
	for i, sid := range c.ids {
		if sid == id {
			return c.sections[i], true
		}
	}
	return nil, false
}

// Decode parses and fully validates a container: magic, known format
// version, section-table sanity, the header CRC, every payload CRC, and
// exact consumption (no trailing bytes). Section payloads alias data.
func Decode(data []byte) (*Container, error) {
	if len(data) < headerFixed+4 {
		return nil, fmt.Errorf("snap: container truncated at %d bytes", len(data))
	}
	if string(data[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("snap: bad magic %x", data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != FormatVersion {
		return nil, fmt.Errorf("snap: unsupported format version %d (this build reads %d)", version, FormatVersion)
	}
	kind := Kind(binary.LittleEndian.Uint32(data[12:]))
	if kind == 0 {
		return nil, fmt.Errorf("snap: zero artifact kind")
	}
	count := binary.LittleEndian.Uint32(data[16:])
	if count > maxSections {
		return nil, fmt.Errorf("snap: %d sections exceeds limit %d", count, maxSections)
	}
	tableEnd := headerFixed + int(count)*tableEntry
	if len(data) < tableEnd+4 {
		return nil, fmt.Errorf("snap: container truncated inside section table")
	}
	wantCRC := binary.LittleEndian.Uint32(data[tableEnd:])
	if crc32.ChecksumIEEE(data[:tableEnd]) != wantCRC {
		return nil, fmt.Errorf("snap: header CRC mismatch")
	}
	c := &Container{Kind: kind, Version: version}
	off := tableEnd + 4
	var prevID uint32
	for i := 0; i < int(count); i++ {
		e := headerFixed + i*tableEntry
		id := binary.LittleEndian.Uint32(data[e:])
		length := binary.LittleEndian.Uint64(data[e+4:])
		payloadCRC := binary.LittleEndian.Uint32(data[e+12:])
		if i > 0 && id <= prevID {
			return nil, fmt.Errorf("snap: section ids not strictly ascending at entry %d", i)
		}
		prevID = id
		if length > uint64(len(data)-off) {
			return nil, fmt.Errorf("snap: section %d length %d exceeds remaining %d bytes", id, length, len(data)-off)
		}
		payload := data[off : off+int(length)]
		off += int(length)
		if crc32.ChecksumIEEE(payload) != payloadCRC {
			return nil, fmt.Errorf("snap: section %d CRC mismatch", id)
		}
		c.ids = append(c.ids, id)
		c.sections = append(c.sections, payload)
	}
	if off != len(data) {
		return nil, fmt.Errorf("snap: %d trailing bytes after last section", len(data)-off)
	}
	return c, nil
}

// expectKind rejects a container holding the wrong artifact kind.
func expectKind(c *Container, want Kind) error {
	if c.Kind != want {
		return fmt.Errorf("snap: container holds a %v artifact, want %v", c.Kind, want)
	}
	return nil
}

// section returns a required section or an error naming it.
func section(c *Container, id uint32, name string) ([]byte, error) {
	p, ok := c.Section(id)
	if !ok {
		return nil, fmt.Errorf("snap: %v container missing %s section", c.Kind, name)
	}
	return p, nil
}
