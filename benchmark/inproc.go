package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"cutfit"
)

// verifyFunc checks one operation's results against the oracle, outside the
// timed region, and reports how many it checked, how many were wrong, and a
// note per mismatch.
type verifyFunc func() (checked, bad int, notes []string)

// opFunc is one operation of an in-process workload.
type opFunc func(i int) (verify verifyFunc, err error)

// opWindow is the closed loop of the in-process workloads: one caller, the
// next operation starts when the previous one has completed. It runs for at
// least minOps operations and until d has passed. Only the operations
// themselves are timed and charged CPU; oracle checks run between them.
func opWindow(d time.Duration, minOps int, op opFunc) *measured {
	m := &measured{}
	rss := sampleRSS(os.Getpid())
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		cpu0 := selfCPUSecs()
		t := time.Now()
		verify, err := op(i)
		lat := msSince(t)
		cpu := selfCPUSecs() - cpu0
		m.cpuSecs += cpu
		if err != nil {
			m.attempted++
			m.failed++
			m.notes = append(m.notes, fmt.Sprintf("ERROR op %d: %v", i, err))
			continue
		}
		m.latMs = append(m.latMs, lat)
		m.cpuPerOp = append(m.cpuPerOp, cpu)
		m.wallSecs += lat / 1e3
		checked, bad, notes := verify()
		m.attempted += checked
		m.failed += bad
		m.notes = append(m.notes, notes...)
	}
	m.requests = len(m.latMs)
	m.rssMiB = rss.finish()
	if peak, err := procPeakRSSMiB(os.Getpid()); err == nil {
		m.peakRSSMiB = peak
	}
	return m
}

// tracedShare is the share of --seconds the traced pass spends on the
// workload's own operations (the rest of the pass is the ladder and the
// daemon probe): untraced and traced operations alternate for seconds /
// tracedShare, which comes to roughly a sixth of the untraced pass's count.
const (
	tracedShare  = 2
	minTracedOps = 3
)

// tracedOpFunc runs operation i with spans: the real Session path under one
// root span, then the same work replayed as direct calls into each layer
// under a second root. It returns the Session path's duration and the sum
// of the replay's layer spans, in milliseconds.
type tracedOpFunc func(i int, rec *recorder) (sessionMs, replayMs float64, verify verifyFunc, err error)

// tracedOps alternates untraced and traced operations — alternating, so
// that heap growth and cache state bias neither side — and derives
// trace.coverage and trace.overhead_frac from the two. after, when non-nil,
// runs untimed after each untraced operation.
func tracedOps(d time.Duration, rec *recorder, op opFunc, after func() error, top tracedOpFunc) (*tracedPart, error) {
	part := &tracedPart{outcome: outcome{vals: make(values)}}
	tally := func(verify verifyFunc) {
		checked, bad, notes := verify()
		part.attempted += checked
		part.failed += bad
		part.notes = append(part.notes, notes...)
	}
	var baseMs, sessionMs, replayMs []float64
	deadline := time.Now().Add(d / tracedShare)
	for i := 0; len(sessionMs) < minTracedOps || time.Now().Before(deadline); i += 2 {
		t := time.Now()
		verify, err := op(i)
		lat := msSince(t)
		if err != nil {
			return nil, fmt.Errorf("untraced op %d: %w", i, err)
		}
		baseMs = append(baseMs, lat)
		tally(verify)
		if after != nil {
			if err := after(); err != nil {
				return nil, err
			}
		}
		s, r, verify, err := top(i+1, rec)
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i+1, err)
		}
		sessionMs = append(sessionMs, s)
		replayMs = append(replayMs, r)
		tally(verify)
	}
	p50 := median(baseMs)
	part.vals.set("trace.coverage", median(replayMs)/p50, len(replayMs))
	part.vals.set("trace.overhead_frac", median(sessionMs)/p50-1, len(sessionMs))
	part.notes = append(part.notes, fmt.Sprintf("trace: untraced op p50 %.2f ms (n=%d), traced op p50 %.2f ms, replayed layer spans p50 %.2f ms (n=%d)",
		p50, len(baseMs), median(sessionMs), median(replayMs), len(replayMs)))
	return part, nil
}

// storeVals reports a session's cache counters as the store.* per-layer
// values: st accumulated over ops operations.
func storeVals(vals values, st cutfit.CacheStats, ops int) {
	lookups := st.Hits + st.Misses
	frac := 0.0
	if lookups > 0 {
		frac = float64(st.Hits) / float64(lookups)
	}
	vals.set("store.hit_frac", frac, int(lookups))
	vals.set("store.delta_derived", float64(st.DeltaDerived)/float64(ops), ops)
	vals.set("store.evictions", float64(st.Evictions)/float64(ops), ops)
	vals.set("store.bytes_mb", float64(st.Bytes)/(1<<20), 1)
}

// statsSince returns the counters accumulated between two reads of one
// session's stats (gauges keep their later value).
func statsSince(after, before cutfit.CacheStats) cutfit.CacheStats {
	after.Hits -= before.Hits
	after.Misses -= before.Misses
	after.DeltaDerived -= before.DeltaDerived
	after.Evictions -= before.Evictions
	return after
}

// addStats accumulates the counters of per-operation sessions.
func addStats(total *cutfit.CacheStats, st cutfit.CacheStats) {
	total.Hits += st.Hits
	total.Misses += st.Misses
	total.DeltaDerived += st.DeltaDerived
	total.Evictions += st.Evictions
	total.Bytes = st.Bytes
}

// scratchMark is a reading of this process's engine scratch-pool counters.
type scratchMark struct{ reused, allocated float64 }

func markScratch() (scratchMark, error) {
	var buf bytes.Buffer
	if err := cutfit.WriteMetrics(&buf); err != nil {
		return scratchMark{}, err
	}
	p, err := parseProm(&buf)
	if err != nil {
		return scratchMark{}, err
	}
	return scratchMark{p.family("cutfit_pregel_scratch_reused_total"), p.family("cutfit_pregel_scratch_allocated_total")}, nil
}

// setReuse reports the pool's reuse fraction since the mark was taken.
func (m scratchMark) setReuse(vals values) error {
	now, err := markScratch()
	if err != nil {
		return err
	}
	reused, allocated := now.reused-m.reused, now.allocated-m.allocated
	vals.set("pregel.scratch_reuse_frac", reuseFrac(reused, allocated), int(reused+allocated))
	return nil
}

func reuseFrac(reused, allocated float64) float64 {
	if reused+allocated == 0 {
		return 0
	}
	return reused / (reused + allocated)
}
