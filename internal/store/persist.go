package store

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/par"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// readAllSized reads r to EOF into a buffer sized once by what r has left
// to give: Len() where the reader offers it (bytes.Reader, bytes.Buffer,
// strings.Reader), size less the current offset for a seekable regular file —
// so a file handed over after some of it was consumed reads to its end rather
// than past it. io.ReadAll's doubling would otherwise allocate and copy
// several times the snapshot size on every warm start; it remains the
// fallback for a reader that tells neither. The size is a hint, not a
// contract: a source that turns out longer is still read whole.
func readAllSized(r io.Reader) ([]byte, error) {
	n := remaining(r)
	if n <= 0 {
		return io.ReadAll(r)
	}
	// One spare byte, so the read that finds EOF fits without growing.
	buf := make([]byte, 0, n+1)
	for {
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// remaining is how many bytes r has left, or 0 when it does not say.
func remaining(r io.Reader) int64 {
	switch s := r.(type) {
	case interface{ Len() int }:
		return int64(s.Len())
	case interface {
		io.Seeker
		Stat() (os.FileInfo, error)
	}:
		info, err := s.Stat()
		if err != nil || !info.Mode().IsRegular() {
			return 0
		}
		at, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0
		}
		return info.Size() - at
	}
	return 0
}

// PersistSummary reports what one Persist call wrote.
type PersistSummary struct {
	// Graphs and Artifacts count the snapshotted records.
	Graphs    int `json:"graphs"`
	Artifacts int `json:"artifacts"`
	// Bytes is the encoded snapshot size.
	Bytes int64 `json:"bytes"`
}

// Persist snapshots the whole cache to w as one snap.KindStore container:
// every distinct graph referenced by a live cache entry or by names, then
// every live cached artifact (assignments, metric sets, built topologies).
// names label graphs for the restoring side (a server's name registry);
// multiple names may share one graph. A graph with a negative vertex ID is
// an error, returned before anything is written. The encoding is
// deterministic for a given cache state.
//
// Persist holds the store lock only while listing entries; encoding runs
// concurrently with normal cache traffic against the immutable artifacts.
func (st *Store) Persist(w io.Writer, names map[string]*graph.Graph) (PersistSummary, error) {
	st.mu.Lock()
	live := make([]*entry, 0, len(st.entries))
	for _, e := range st.entries {
		live = append(live, e)
	}
	st.mu.Unlock()

	// Distinct graphs, labeled by every name that points at them.
	labels := make(map[*graph.Graph][]string)
	for name, g := range names {
		if g != nil {
			labels[g] = append(labels[g], name)
		}
	}
	seen := make(map[*graph.Graph]bool, len(labels))
	graphs := make([]*graph.Graph, 0, len(labels))
	for g := range labels {
		seen[g] = true
		graphs = append(graphs, g)
	}
	for _, e := range live {
		if !seen[e.key.g] {
			seen[e.key.g] = true
			graphs = append(graphs, e.key.g)
		}
	}
	// Canonical graph order: labeled graphs first by their sorted label
	// list, then unlabeled by fingerprint.
	for _, g := range graphs {
		sort.Strings(labels[g])
	}
	sort.Slice(graphs, func(i, j int) bool {
		li, lj := strings.Join(labels[graphs[i]], "\x00"), strings.Join(labels[graphs[j]], "\x00")
		if (li == "") != (lj == "") {
			return li != ""
		}
		if li != lj {
			return li < lj
		}
		return graphs[i].Fingerprint() < graphs[j].Fingerprint()
	})
	// The snapshot's vertex lists are non-negative; refuse before writing a
	// byte rather than leave a file that no restore can read.
	for _, g := range graphs {
		if vs := g.Vertices(); len(vs) > 0 && vs[0] < 0 {
			return PersistSummary{}, fmt.Errorf("store: graph %q (fingerprint %016x) has negative vertex ID %d, which a snapshot cannot hold", labels[g], g.Fingerprint(), vs[0])
		}
	}
	index := make(map[*graph.Graph]int, len(graphs))
	sg := make([]snap.StoreGraph, len(graphs))
	for i, g := range graphs {
		index[g] = i
		sg[i] = snap.StoreGraph{Labels: labels[g], Data: snap.EncodeGraph(g)}
	}

	// Canonical artifact order: (graph index, stage, strategy key, parts).
	sort.Slice(live, func(i, j int) bool {
		ki, kj := live[i].key, live[j].key
		if index[ki.g] != index[kj.g] {
			return index[ki.g] < index[kj.g]
		}
		if ki.kind != kj.kind {
			return ki.kind < kj.kind
		}
		if ki.strategy != kj.strategy {
			return ki.strategy < kj.strategy
		}
		return ki.numParts < kj.numParts
	})
	sa := make([]snap.StoreArtifact, 0, len(live))
	for _, e := range live {
		k := e.key
		if c, ok := codecs[k.kind]; ok {
			sa = append(sa, snap.StoreArtifact{
				GraphIndex:  index[k.g],
				Stage:       c.stage,
				StrategyKey: k.strategy,
				NumParts:    k.numParts,
				Data:        c.encode(e.val, k.g, k.strategy),
			})
		}
	}

	data := snap.EncodeStore(sg, sa)
	if _, err := w.Write(data); err != nil {
		return PersistSummary{}, fmt.Errorf("store: writing snapshot: %w", err)
	}
	return PersistSummary{Graphs: len(sg), Artifacts: len(sa), Bytes: int64(len(data))}, nil
}

// Restore loads a Persist snapshot into the cache: fresh graphs (vertex
// views and fingerprints pre-seeded) and every artifact, fully validated,
// under the restored graphs' keys — so the very first request against a
// restored graph is a cache hit. The labeled graphs are returned by name
// so callers can rebuild their registries. Entries that do not fit the
// memory budget spill straight to the disk tier (when configured).
//
// Decoding is one fan-out on GOMAXPROCS workers: the graphs' edge decodes
// first, and meanwhile every artifact checked against its graph record's
// identity (snap.OpenGraph), to bind once that graph has matched it.
// Errors come out as a serial restore meets them (graphs, then artifacts,
// in record order); the cache is touched only when all of it decoded, in
// record order, so LRU, eviction and spill order are a serial restore's.
func (st *Store) Restore(r io.Reader) (map[string]*graph.Graph, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	sg, sa, err := snap.DecodeStore(data)
	if err != nil {
		return nil, err
	}
	records := make([]*snap.GraphRecord, len(sg))
	graphs := make([]*graph.Graph, len(sg))
	graphErrs := make([]error, len(sg))
	for i, rec := range sg {
		records[i], graphErrs[i] = snap.OpenGraph(rec.Data)
	}
	unbound := make([]snap.Unbound, len(sa))
	artErrs := make([]error, len(sa))
	if err := par.ForEach(context.TODO(), par.DefaultParallelism(), len(sg)+len(sa), func(i int) {
		if i < len(sg) {
			if records[i] != nil {
				graphs[i], graphErrs[i] = records[i].Decode()
			}
			return
		}
		i -= len(sg)
		if gr := records[sa[i].GraphIndex]; gr != nil {
			a := sa[i]
			unbound[i], artErrs[i] = decodeUnbound(a.Stage, a.Data, gr.Identity, a.StrategyKey, a.NumParts, st.build)
		}
	}); err != nil {
		return nil, fmt.Errorf("store: restoring: %w", err)
	}
	named := make(map[string]*graph.Graph)
	for i, rec := range sg {
		if graphErrs[i] != nil {
			return nil, fmt.Errorf("store: restoring graph %d: %w", i, graphErrs[i])
		}
		for _, label := range rec.Labels {
			if label == "" {
				continue
			}
			if _, dup := named[label]; dup {
				return nil, fmt.Errorf("store: snapshot labels %q twice", label)
			}
			named[label] = graphs[i]
		}
	}
	for i := range sa {
		if artErrs[i] != nil {
			return nil, fmt.Errorf("store: restoring artifact %d: %w", i, artErrs[i])
		}
	}
	for i, rec := range sa {
		g := graphs[rec.GraphIndex]
		v := unbound[i].Bind(g)
		k := key{g: g, strategy: rec.StrategyKey, numParts: rec.NumParts, kind: kindOf(rec.Stage)}
		st.mu.Lock()
		evicted := st.insert(k, v, priceOf(v))
		st.syncGauges()
		st.mu.Unlock()
		st.spill(evicted)
	}
	return named, nil
}

// kindOf is the cached kind a bundle stage restores as (DecodeStore has
// rejected every other stage).
func kindOf(stage snap.Stage) kind {
	for kd, c := range codecs {
		if c.stage == stage {
			return kd
		}
	}
	panic(fmt.Sprintf("store: no codec for stage %d", stage))
}

// artifactCodec is how one persisted kind travels as a standalone snap
// container, in a disk-tier file and in a Persist bundle alike: its bundle
// stage and its encoder. Decoding goes through snap.DecodeArtifact for the
// stage, which validates the artifact against the graph identity and
// strategy key it is cached under and reports its partition count.
type artifactCodec struct {
	stage  snap.Stage
	encode func(v any, g *graph.Graph, strategy string) []byte
}

// codecs holds every persisted kind; answers have none, so they are never
// spilled or snapshotted.
var codecs = map[kind]artifactCodec{
	kindAssignment: {
		stage:  snap.StageAssignment,
		encode: func(v any, _ *graph.Graph, _ string) []byte { return snap.EncodeAssignment(v.(*partition.Assignment)) },
	},
	kindMetrics: {
		stage: snap.StageMetrics,
		encode: func(v any, g *graph.Graph, strategy string) []byte {
			return snap.EncodeMetrics(v.(*metrics.Result), g, strategy)
		},
	},
	kindBuilt: {
		stage: snap.StageTopology,
		encode: func(v any, _ *graph.Graph, strategy string) []byte {
			return snap.EncodeTopology(v.(*pregel.PartitionedGraph), strategy)
		},
	},
}

// decodeUnbound decodes one container of the given stage to be cached
// under (strategy, numParts) for a graph of identity id, unbound. The
// decoder verifies the embedded strategy key against the one it will be
// cached under, so a relabeled record or file can never plant an artifact
// under another tuple's key; the partition count is cross-checked for the
// same reason.
func decodeUnbound(stage snap.Stage, data []byte, id snap.GraphIdentity, strategy string, numParts int, build pregel.BuildOptions) (snap.Unbound, error) {
	u, err := snap.DecodeArtifact(stage, data, id, strategy, build)
	if err == nil && u.NumParts != numParts {
		err = fmt.Errorf("holds %d parts, record says %d", u.NumParts, numParts)
	}
	return u, err
}

// decodeFor decodes one container to be cached under (g, strategy,
// numParts): decodeUnbound against g's own identity, then bound to g.
func (c artifactCodec) decodeFor(data []byte, g *graph.Graph, strategy string, numParts int, build pregel.BuildOptions) (any, error) {
	u, err := decodeUnbound(c.stage, data, snap.IdentityOf(g), strategy, numParts, build)
	if err != nil {
		return nil, err
	}
	return u.Bind(g), nil
}
