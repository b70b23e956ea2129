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

// Restore loads a Persist snapshot into the cache: graphs are decoded
// (fresh objects, vertex views pre-seeded), every artifact is decoded
// against its graph with the full codec validation, and the results are
// inserted under the restored graphs' keys — so the very first request
// against a restored graph is a cache hit. The labeled graphs are returned
// by name so callers can rebuild their registries. Entries that do not fit
// the memory budget spill straight to the disk tier (when configured).
func (st *Store) Restore(r io.Reader) (map[string]*graph.Graph, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	sg, sa, err := snap.DecodeStore(data)
	if err != nil {
		return nil, err
	}
	graphs := make([]*graph.Graph, len(sg))
	named := make(map[string]*graph.Graph)
	for i, rec := range sg {
		g, err := snap.DecodeGraph(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("store: restoring graph %d: %w", i, err)
		}
		graphs[i] = g
		for _, label := range rec.Labels {
			if label == "" {
				continue
			}
			if _, dup := named[label]; dup {
				return nil, fmt.Errorf("store: snapshot labels %q twice", label)
			}
			named[label] = g
		}
	}
	// The artifact records are independent of each other once their graphs
	// exist, so they decode concurrently, on GOMAXPROCS workers; they enter the cache afterwards in record order, which keeps
	// LRU, eviction and spill order those of a serial restore. Everything
	// decoded is held until then — no more than the persisting store's
	// memory budget, since Persist writes only memory-resident entries.
	restored := make([]restoredArtifact, len(sa))
	errs := make([]error, len(sa))
	if err := par.ForEach(context.Background(), par.DefaultParallelism(), len(sa), func(i int) {
		restored[i], errs[i] = st.decodeArtifact(sa[i], graphs[sa[i].GraphIndex])
	}); err != nil {
		return nil, fmt.Errorf("store: restoring artifacts: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("store: restoring artifact %d: %w", i, err)
		}
	}
	for i, rec := range sa {
		g := graphs[rec.GraphIndex]
		k := key{g: g, strategy: rec.StrategyKey, numParts: rec.NumParts, kind: restored[i].kind}
		p := priceOf(restored[i].val)
		st.mu.Lock()
		evicted := st.insert(k, restored[i].val, p)
		st.syncGauges()
		st.mu.Unlock()
		st.spill(evicted)
	}
	return named, nil
}

// restoredArtifact is one decoded artifact record on its way into the cache.
type restoredArtifact struct {
	val  any
	kind kind
}

// decodeArtifact decodes one artifact record against its restored graph.
func (st *Store) decodeArtifact(rec snap.StoreArtifact, g *graph.Graph) (restoredArtifact, error) {
	for kd, c := range codecs {
		if c.stage == rec.Stage {
			v, err := c.decodeFor(rec.Data, g, rec.StrategyKey, rec.NumParts, st.build)
			return restoredArtifact{v, kd}, err
		}
	}
	return restoredArtifact{}, fmt.Errorf("unknown stage %d", rec.Stage)
}

// artifactCodec is how one persisted kind travels as a standalone snap
// container, in a disk-tier file and in a Persist bundle alike: its bundle
// stage, its encoder, and its decoder, which validates the artifact against
// the graph and strategy key it is cached under and reports its partition
// count.
type artifactCodec struct {
	stage  snap.Stage
	encode func(v any, g *graph.Graph, strategy string) []byte
	decode func(data []byte, g *graph.Graph, strategy string, build pregel.BuildOptions) (v any, numParts int, err error)
}

// codecs holds every persisted kind; answers have none, so they are never
// spilled or snapshotted.
var codecs = map[kind]artifactCodec{
	kindAssignment: {
		stage:  snap.StageAssignment,
		encode: func(v any, _ *graph.Graph, _ string) []byte { return snap.EncodeAssignment(v.(*partition.Assignment)) },
		decode: func(data []byte, g *graph.Graph, strategy string, _ pregel.BuildOptions) (any, int, error) {
			a, err := snap.DecodeAssignment(data, g, strategy)
			if err != nil {
				return nil, 0, err
			}
			return a, a.NumParts, nil
		},
	},
	kindMetrics: {
		stage: snap.StageMetrics,
		encode: func(v any, g *graph.Graph, strategy string) []byte {
			return snap.EncodeMetrics(v.(*metrics.Result), g, strategy)
		},
		decode: func(data []byte, g *graph.Graph, strategy string, _ pregel.BuildOptions) (any, int, error) {
			m, err := snap.DecodeMetrics(data, g, strategy)
			if err != nil {
				return nil, 0, err
			}
			return m, m.NumParts, nil
		},
	},
	kindBuilt: {
		stage: snap.StageTopology,
		encode: func(v any, _ *graph.Graph, strategy string) []byte {
			return snap.EncodeTopology(v.(*pregel.PartitionedGraph), strategy)
		},
		decode: func(data []byte, g *graph.Graph, strategy string, build pregel.BuildOptions) (any, int, error) {
			pg, err := snap.DecodeTopology(data, g, strategy, build)
			if err != nil {
				return nil, 0, err
			}
			return pg, pg.NumParts, nil
		},
	},
}

// decodeFor decodes one container to be cached under (g, strategy,
// numParts). The decoder verifies the embedded strategy key against the one
// it will be cached under, so a relabeled record or file can never plant an
// artifact under another tuple's key; the partition count is cross-checked
// for the same reason.
func (c artifactCodec) decodeFor(data []byte, g *graph.Graph, strategy string, numParts int, build pregel.BuildOptions) (any, error) {
	v, n, err := c.decode(data, g, strategy, build)
	if err == nil && n != numParts {
		err = fmt.Errorf("holds %d parts, record says %d", n, numParts)
	}
	return v, err
}
