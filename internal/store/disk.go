package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cutfit/internal/graph"
)

// DefaultDiskMaxBytes bounds the disk tier when Config.DiskMaxBytes is
// zero: four times the default memory budget, so everything the memory
// tier ever evicts in a typical serving session stays restorable.
const DefaultDiskMaxBytes int64 = 4 * DefaultMaxBytes

// diskTier is the optional durable layer under the in-memory cache.
// Entries are whole snap containers, one file per (graph content, strategy
// key, numParts, stage) tuple:
//
//	<dir>/<fingerprint>-<tuplehash>.snap
//
// The graph's content fingerprint leads the name, so every spilled entry of
// one graph can be found (and invalidated) by prefix even across process
// restarts — the in-memory key's graph pointer and version never touch
// disk. Reads validate the decoded artifact against the requesting graph
// (fingerprint, counts, structural invariants), so a stale or corrupt file
// degrades to a miss, never to a wrong artifact.
type diskTier struct {
	dir string
	max int64 // byte budget; < 0 unbounded

	mu      sync.Mutex
	entries map[string]int64 // filename -> size
	order   []string         // eviction order, oldest first
	bytes   int64

	// repEntries and repBytes mirror the Store fields of the same name:
	// last values published to the process-wide disk-tier gauges.
	repEntries int64
	repBytes   int64
}

// newDiskTier opens (creating if needed) a disk tier rooted at dir and
// adopts any entries a previous process left there, oldest first.
func newDiskTier(dir string, max int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating disk tier: %w", err)
	}
	dt := &diskTier{dir: dir, max: max, entries: make(map[string]int64)}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning disk tier: %w", err)
	}
	type adopted struct {
		name string
		size int64
		mod  int64
	}
	var found []adopted
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		if !strings.HasSuffix(de.Name(), ".snap") {
			// A crash between CreateTemp and rename leaves an orphaned temp
			// file; sweep them on open.
			if strings.Contains(de.Name(), ".snap.tmp") {
				os.Remove(filepath.Join(dir, de.Name()))
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, adopted{de.Name(), info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mod != found[j].mod {
			return found[i].mod < found[j].mod
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		dt.entries[f.name] = f.size
		dt.order = append(dt.order, f.name)
		dt.bytes += f.size
	}
	dt.mu.Lock()
	dt.syncGauges()
	dt.mu.Unlock()
	return dt, nil
}

// diskName derives the stable file name of one artifact tuple. The leading
// component is the graph's content fingerprint (so prefix matching finds a
// graph's entries); the second hashes the rest of the tuple.
func diskName(fp uint64, strategyKey string, numParts int, kd kind) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", strategyKey, numParts, kd)
	return fmt.Sprintf("%016x-%016x.snap", fp, h.Sum64())
}

// put writes one entry atomically (unique temp file + fsync + rename, so
// concurrent writers of one entry can never publish each other's partial
// bytes and a crash after rename cannot surface an unsynced file) and
// evicts the oldest entries beyond the byte budget; the entry just written
// is never its own eviction victim. Errors are returned for observability
// but leave the tier consistent — a failed spill just means a future disk
// miss.
func (dt *diskTier) put(name string, data []byte) error {
	path := filepath.Join(dt.dir, name)
	tmp, err := os.CreateTemp(dt.dir, name+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	defer dt.syncGauges()
	if old, ok := dt.entries[name]; ok {
		dt.bytes -= old
	} else {
		dt.order = append(dt.order, name)
	}
	dt.entries[name] = int64(len(data))
	dt.bytes += int64(len(data))
	if dt.max < 0 {
		return nil
	}
	for dt.bytes > dt.max {
		idx := -1
		for i, n := range dt.order {
			if n != name { // never evict the entry being written
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		victim := dt.order[idx]
		dt.order = append(dt.order[:idx], dt.order[idx+1:]...)
		os.Remove(filepath.Join(dt.dir, victim))
		dt.bytes -= dt.entries[victim]
		delete(dt.entries, victim)
	}
	return nil
}

// get reads one entry, adopting files left by previous processes into the
// index.
func (dt *diskTier) get(name string) ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(dt.dir, name))
	if err != nil {
		return nil, false
	}
	dt.mu.Lock()
	if _, ok := dt.entries[name]; !ok {
		dt.entries[name] = int64(len(data))
		dt.order = append(dt.order, name)
		dt.bytes += int64(len(data))
		dt.syncGauges()
	}
	dt.mu.Unlock()
	return data, true
}

// remove deletes one entry (used when a read finds a corrupt or mismatched
// file).
func (dt *diskTier) remove(name string) {
	os.Remove(filepath.Join(dt.dir, name))
	dt.mu.Lock()
	if size, ok := dt.entries[name]; ok {
		dt.bytes -= size
		delete(dt.entries, name)
		for i, n := range dt.order {
			if n == name {
				dt.order = append(dt.order[:i], dt.order[i+1:]...)
				break
			}
		}
		dt.syncGauges()
	}
	dt.mu.Unlock()
}

// removeGraph deletes every entry whose file name carries the given graph
// content fingerprint — including files spilled by previous processes,
// which the directory scan is re-consulted for.
func (dt *diskTier) removeGraph(fp uint64) {
	prefix := fmt.Sprintf("%016x-", fp)
	dirents, err := os.ReadDir(dt.dir)
	dt.mu.Lock()
	defer dt.mu.Unlock()
	defer dt.syncGauges()
	drop := func(name string) {
		os.Remove(filepath.Join(dt.dir, name))
		if size, ok := dt.entries[name]; ok {
			dt.bytes -= size
			delete(dt.entries, name)
		}
	}
	if err == nil {
		for _, de := range dirents {
			if !de.IsDir() && strings.HasPrefix(de.Name(), prefix) && strings.HasSuffix(de.Name(), ".snap") {
				drop(de.Name())
			}
		}
	} else {
		for name := range dt.entries {
			if strings.HasPrefix(name, prefix) {
				drop(name)
			}
		}
	}
	keep := dt.order[:0]
	for _, n := range dt.order {
		if _, ok := dt.entries[n]; ok {
			keep = append(keep, n)
		}
	}
	dt.order = keep
}

// stat reports the tier's current entry count and bytes.
func (dt *diskTier) stat() (entries int, bytes int64) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return len(dt.entries), dt.bytes
}

// ---- store integration ----------------------------------------------------

// encodeEntry serializes one cache entry as its standalone snap container.
// ok is false for entries whose graph was mutated after they were computed
// (their content no longer matches the live fingerprint) — those are
// garbage and must not be spilled.
func (st *Store) encodeEntry(e *entry) (name string, data []byte, ok bool) {
	k := e.key
	c, ok := codecs[k.kind]
	if !ok || k.version != k.g.Version() {
		return "", nil, false
	}
	return diskName(k.g.Fingerprint(), k.strategy, k.numParts, k.kind), c.encode(e.val, k.g, k.strategy), true
}

// spill writes evicted entries through to the disk tier (best effort; a
// failed spill is a future disk miss, never an error for the evicting
// request).
func (st *Store) spill(evicted []*entry) {
	if st.disk == nil {
		return
	}
	for _, e := range evicted {
		if name, data, ok := st.encodeEntry(e); ok {
			_ = st.disk.put(name, data)
		}
	}
}

// fromDisk attempts to satisfy a miss from the disk tier. The decoded
// artifact is validated against g (content fingerprint, counts, structural
// invariants) and against the requested tuple; any mismatch or decode error
// deletes the file and falls through to computation.
func (st *Store) fromDisk(g *graph.Graph, strategyKey string, numParts int, kd kind) (any, bool) {
	if st.disk == nil {
		return nil, false
	}
	name := diskName(g.Fingerprint(), strategyKey, numParts, kd)
	data, ok := st.disk.get(name)
	if !ok {
		return nil, false
	}
	val, err := codecs[kd].decodeFor(data, g, strategyKey, numParts, st.build)
	if err != nil {
		st.disk.remove(name)
		return nil, false
	}
	st.mu.Lock()
	st.diskHits++
	st.mu.Unlock()
	mDiskHits.Inc()
	return val, true
}

// FlushDisk writes every live cached artifact through to the disk tier
// (entries whose graph was mutated since they were computed are skipped).
// It returns the number of entries written. A no-op without a disk tier.
// Useful before shutdown when only the disk tier — not a full Persist
// snapshot — carries state across restarts.
func (st *Store) FlushDisk() (int, error) {
	if st.disk == nil {
		return 0, nil
	}
	st.mu.Lock()
	entries := make([]*entry, 0, len(st.entries))
	for _, e := range st.entries {
		entries = append(entries, e)
	}
	st.mu.Unlock()
	written := 0
	var firstErr error
	for _, e := range entries {
		name, data, ok := st.encodeEntry(e)
		if !ok {
			continue
		}
		if err := st.disk.put(name, data); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written++
	}
	return written, firstErr
}
