package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cutfit/internal/graph"
)

// env is what one pass of one workload is given.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	binDir   string // prebuilt cutfitd and cutfit-worker
	outDir   string // trace files, daemon logs, scratch snapshots
}

// measured is what one untraced timed window yields.
type measured struct {
	latMs      []float64 // one per operation (op, round, cycle, restart)
	requests   int       // completed requests; equals len(latMs) in-process
	wallSecs   float64   // timed wall the requests completed in
	cpuSecs    float64   // user+sys CPU of the system under test over the window
	cpuPerOp   []float64 // the same per operation, where it can be attributed (in-process)
	rssMiB     []float64 // VmRSS of the system-under-test processes, summed, sampled every rssEvery
	peakRSSMiB float64   // their VmHWM, summed
	attempted  int       // results checked against an oracle
	failed     int       // errors, non-200s, oracle mismatches, fallbacks
	notes      []string
}

// outcome is what a pass, or one part of it, yields: metric values, how
// many results were checked and how many were wrong, and notes to print.
type outcome struct {
	vals      values
	attempted int
	failed    int
	notes     []string
}

func (o *outcome) absorb(p outcome) {
	o.vals.merge(p.vals)
	o.attempted += p.attempted
	o.failed += p.failed
	o.notes = append(o.notes, p.notes...)
}

// tracedPart is what a workload's own traced pass yields: the per-layer
// values only it can measure, and the graph the ladder then runs on.
type tracedPart struct {
	outcome
	edges []graph.Edge // the workload's graph ...
	text  []byte       // ... and its SNAP text
	// probed is set by the daemon workloads, whose traced pass already is
	// the daemon probe.
	probed bool
}

// instance is one set-up of a workload: inputs generated, daemons booted,
// caches warm, oracles computed.
type instance interface {
	// measure runs the closed-loop timed window for about d.
	measure(ctx context.Context, d time.Duration) (*measured, error)
	// traced runs the workload's traced pass, sized to about d.
	traced(ctx context.Context, d time.Duration, rec *recorder) (*tracedPart, error)
	close()
}

type setupFunc func(ctx context.Context, e *env) (instance, error)

var workloadSetups = map[string]setupFunc{
	"tailor-cold":   setupTailor,
	"serve-hot":     setupServe,
	"stream-update": setupStream,
	"warm-restart":  setupRestart,
	"dist-2w":       setupDist,
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of a pass.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runPass executes one pass of one workload and prints its report: every
// metric by name with unit and sample count, then the JSON result line.
func runPass(ctx context.Context, e *env, w io.Writer) (*resultLine, error) {
	setup, ok := workloadSetups[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	defs, pass, run := endToEndDefs, "end-to-end", untracedPass
	if e.trace {
		defs, pass, run = perLayerDefs, "per-layer (traced)", tracedPass
	}
	refBefore := hostReferenceMs()
	out, err := run(ctx, e, setup)
	if err != nil {
		return nil, err
	}
	res := &resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricOut, len(defs))}
	fmt.Fprintf(w, "== %s  seed %d  %s ==\n", e.workload, e.seed, pass)
	for _, d := range defs {
		s, ok := out.vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: pass produced no value for %s", e.workload, d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: s.v, Unit: d.Unit}
		fmt.Fprintf(w, "%-40s %14.6g %-9s n=%d\n", d.Name, s.v, d.Unit, s.n)
	}
	failedFrac := 0.0
	if out.attempted > 0 {
		failedFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %-9s n=%d\n", "failed_frac", failedFrac, "ratio", out.attempted)
	notes := append(out.notes, fmt.Sprintf("host reference loop: %.1f ms before the pass, %.1f ms after (single-threaded pure CPU; a rise marks a slow spell of the host, which hits parallel, memory-heavy work several times harder than this loop)",
		refBefore, hostReferenceMs()))
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintln(w, "  "+n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

// untracedPass sets the workload up setupReps times (setup_s is the median;
// the last set-up is the one measured), then runs the timed window with no
// tracing.
func untracedPass(ctx context.Context, e *env, setup setupFunc) (*outcome, error) {
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			// Return the previous set-up's memory before the next one is
			// timed, so every set-up starts from the same heap.
			debug.FreeOSMemory()
		}
		t := time.Now()
		var err error
		if inst, err = setup(ctx, e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()
	runtime.GC()
	resetSelfPeakRSS()

	m, err := inst.measure(ctx, time.Duration(e.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if len(m.latMs) == 0 {
		return nil, fmt.Errorf("timed window completed no operation")
	}
	ops := len(m.latMs)
	vals := make(values)
	vals.set("result_p50_ms", median(m.latMs), ops)
	// CPU per result is the median over operations where CPU can be
	// attributed to one (in-process); the daemons' CPU is read from /proc in
	// 10 ms ticks and shared by concurrent rounds, so there it is the
	// window's total over the operations.
	if len(m.cpuPerOp) > 0 {
		vals.set("cpu_s_per_result", median(m.cpuPerOp), len(m.cpuPerOp))
	} else {
		vals.set("cpu_s_per_result", m.cpuSecs/float64(ops), ops)
	}
	if len(m.rssMiB) == 0 {
		return nil, fmt.Errorf("timed window took no resident-size sample")
	}
	vals.set("rss_p50_mb", median(m.rssMiB), len(m.rssMiB))
	vals.set("setup_s", median(setups), len(setups))
	notes := append(m.notes, tailNote("result", m.latMs), latencyNote(m.latMs),
		fmt.Sprintf("resident high-water mark: %.1f MiB (an extreme value, so not a metric: it depends on where in a collection cycle the largest transient allocations fall)", m.peakRSSMiB),
		fmt.Sprintf("throughput: %.3f results/s (%d requests in %.2f s of timed wall; a mean, so a few stalled operations move it where they do not move the median)",
			float64(m.requests)/m.wallSecs, m.requests, m.wallSecs))
	return &outcome{vals: vals, attempted: m.attempted, failed: m.failed, notes: notes}, nil
}

// tailNote reports the highest percentile that still has ten samples beyond
// it; with the 20-100 operations a timed window holds that is rarely
// above the median, which is why no tail is an end-to-end metric.
func tailNote(what string, latMs []float64) string {
	p := highestPercentile(len(latMs))
	if p <= 50 {
		return fmt.Sprintf("%s latency: n=%d, no percentile above p50 has ten samples beyond it", what, len(latMs))
	}
	return fmt.Sprintf("%s latency: n=%d, p%g = %.3f ms (highest percentile with ten samples beyond it)", what, len(latMs), p, quantile(latMs, p/100))
}

// latencyNote lists every operation's latency in order: a drift, a warm-up
// or two regimes show at a glance where the median alone would hide them.
func latencyNote(latMs []float64) string {
	var b strings.Builder
	b.WriteString("result latencies in order (ms):")
	for _, ms := range latMs {
		fmt.Fprintf(&b, " %.0f", ms)
	}
	return b.String()
}

// tracedPass runs the workload's own traced pass, then the in-process
// layer ladder on the workload's graph and — unless the workload is itself
// a daemon workload — the daemon probe, and writes the trace file.
func tracedPass(ctx context.Context, e *env, setup setupFunc) (*outcome, error) {
	inst, err := setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	part, err := inst.traced(ctx, time.Duration(e.seconds*float64(time.Second)), rec)
	inst.close()
	if err != nil {
		return nil, err
	}
	out := &part.outcome
	// Collect the workload's garbage before the ladder, but keep the pages:
	// handing them back to the OS would make the next timings pay to fault
	// them in again.
	runtime.GC()
	lad, err := runLadder(ctx, rec, part.edges, part.text, e.outDir)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	out.absorb(lad.outcome)
	runtime.GC()

	if !part.probed {
		d, err := setupDaemons(ctx, e, true, true)
		if err != nil {
			return nil, fmt.Errorf("daemon probe set-up: %w", err)
		}
		probe, err := runDaemonProbe(ctx, d, rec, probeOptions{serveClients: 1})
		d.close()
		if err != nil {
			return nil, fmt.Errorf("daemon probe: %w", err)
		}
		out.absorb(probe.outcome)
	}

	path, err := rec.write(e.outDir, e.workload, e.seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rel, _ := filepath.Rel(filepath.Dir(e.outDir), path)
	out.notes = append(out.notes, fmt.Sprintf("trace: %d spans in %s", len(rec.spans), rel))
	return out, nil
}

// refSink keeps the reference loop's result alive.
var refSink uint64

// hostReferenceMs times a fixed pure-CPU loop (about 0.13 s on the
// reference VM). It is not a metric: it is printed beside the metrics so
// that a reader comparing two runs can tell a slow spell of a shared host
// from a slow build.
func hostReferenceMs() float64 {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 100_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink = x
	return msSince(t)
}
