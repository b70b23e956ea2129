package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cutfit"
	"cutfit/internal/graph"
)

// daemons is one set-up of the daemon workloads (and of the probe every
// traced pass runs): the 262k-edge graph generated, the processes booted,
// the graph registered as text, every artifact warm, oracles computed.
type daemons struct {
	c     *fleet
	x     *expect
	edges []graph.Edge
	text  []byte
	// registerMs is the local daemon's POST /v1/graphs latency.
	registerMs float64
	// warmRoundMs is how long the warm-up serve round took; half of it
	// staggers the second client.
	warmRoundMs float64
	// localBodies are the local daemon's replies to the distributed
	// classes: the byte-equality reference for the coordinator's.
	localBodies map[string][]byte
}

// setupDaemons boots a local cutfitd (always) and, with dist, a coordinator
// with two workers; registers the graph; warms the serve round when serve is
// set and the distributed classes when dist is set.
func setupDaemons(ctx context.Context, e *env, serve, dist bool) (*daemons, error) {
	g, err := genGraph(scaleG262k, e.seed)
	if err != nil {
		return nil, err
	}
	d := &daemons{edges: g.Edges(), localBodies: make(map[string][]byte)}
	d.text = snapText(d.edges)
	if d.c, err = bootFleet(e, e.workload, dist); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			d.c.close()
		}
	}()
	if d.registerMs, err = d.c.register(ctx, d.c.local, d.text); err != nil {
		return nil, err
	}
	classes := distAlgs
	if serve {
		classes = classNames
	}
	if d.x, err = expectFor(g, classes); err != nil {
		return nil, err
	}
	warm := distRound()
	if serve {
		warm = serveRound()
	}
	r := d.round(ctx, d.c.local, warm, nil, nil, 0, d.localBodies)
	if r.failed > 0 {
		return nil, fmt.Errorf("warm-up round on the local daemon: %v", r.notes)
	}
	d.warmRoundMs = r.ms
	if dist {
		if _, err := d.c.register(ctx, d.c.coord, d.text); err != nil {
			return nil, err
		}
		if r := d.round(ctx, d.c.coord, distRound(), d.localBodies, nil, 0, nil); r.failed > 0 {
			return nil, fmt.Errorf("warm-up round on the coordinator: %v", r.notes)
		}
	}
	ok = true
	return d, nil
}

func (d *daemons) close() { d.c.close() }

// roundResult is one closed-loop round of requests by one client.
type roundResult struct {
	ms       float64
	classMs  map[string]float64
	requests int
	failed   int
	notes    []string
}

// round issues reqs in order against p, each after the previous reply. A
// reply fails on a transport error, any status but 200 (so every 429 and
// 5xx), an oracle mismatch, or — with ref — a body that differs from the
// reference daemon's. With rec the round and each request get a span.
// capture, when non-nil, receives the reply bodies by class.
func (d *daemons) round(ctx context.Context, p *proc, reqs []request, ref map[string][]byte, rec *recorder, traceID int, capture map[string][]byte) roundResult {
	r := roundResult{classMs: make(map[string]float64, len(reqs))}
	root := 0
	if rec != nil {
		root = rec.begin(traceID, 0, "cutfitd", "round "+p.name)
	}
	start := time.Now()
	for _, q := range reqs {
		sp := 0
		if rec != nil {
			sp = rec.begin(traceID, root, "cutfitd", "POST "+q.path+" "+q.class)
		}
		t := time.Now()
		status, body, err := d.c.post(ctx, p.url+q.path, q.body)
		r.classMs[q.class] = msSince(t)
		if rec != nil {
			rec.end(sp)
		}
		r.requests++
		switch {
		case err != nil:
			err = fmt.Errorf("transport: %w", err)
		case status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		default:
			if err = d.x.checkBody(q.class, body); err == nil && ref != nil && !bytes.Equal(body, ref[q.class]) {
				err = fmt.Errorf("reply differs from the local daemon's")
			}
		}
		if err != nil {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("MISMATCH %s %s: %v", p.name, q.class, err))
		}
		if capture != nil {
			capture[q.class] = body
		}
	}
	r.ms = msSince(start)
	if rec != nil {
		rec.end(root)
	}
	return r
}

// loopSpec describes a closed loop: clients goroutines, each issuing rounds
// back to back for at least minRounds and until deadline.
type loopSpec struct {
	p         *proc
	reqs      []request
	ref       map[string][]byte
	clients   int
	stagger   time.Duration // client i starts i*stagger late
	deadline  time.Time
	minRounds int
	traced    bool
	traceBase int
}

// loopResult aggregates a closed loop's rounds over all clients.
type loopResult struct {
	roundMs  []float64
	classMs  map[string][]float64
	requests int
	failed   int
	wallSecs float64
	notes    []string
	recs     []*recorder
}

func newLoopResult() loopResult { return loopResult{classMs: make(map[string][]float64)} }

// add appends one round to the aggregate.
func (res *loopResult) add(r roundResult) {
	res.roundMs = append(res.roundMs, r.ms)
	for class, ms := range r.classMs {
		res.classMs[class] = append(res.classMs[class], ms)
	}
	res.requests += r.requests
	res.failed += r.failed
	res.notes = append(res.notes, r.notes...)
}

// loop runs the closed loop and waits for every client to finish its
// current round.
func (d *daemons) loop(ctx context.Context, spec loopSpec) loopResult {
	type clientLog struct {
		rounds     []roundResult
		start, end time.Time
		rec        *recorder
	}
	logs := make([]clientLog, spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			if spec.traced {
				l.rec = newRecorder()
			}
			time.Sleep(time.Duration(c) * spec.stagger)
			l.start = time.Now()
			for i := 0; i < spec.minRounds || time.Now().Before(spec.deadline); i++ {
				l.rounds = append(l.rounds, d.round(ctx, spec.p, spec.reqs, spec.ref, l.rec, spec.traceBase+c*10000+i, nil))
			}
			l.end = time.Now()
		}(c)
	}
	wg.Wait()

	res := newLoopResult()
	first, last := logs[0].start, logs[0].end
	for _, l := range logs {
		if l.start.Before(first) {
			first = l.start
		}
		if l.end.After(last) {
			last = l.end
		}
		for _, r := range l.rounds {
			res.add(r)
		}
		if l.rec != nil {
			res.recs = append(res.recs, l.rec)
		}
	}
	res.wallSecs = last.Sub(first).Seconds()
	return res
}

// window runs the untraced timed window of a daemon workload against p and
// charges CPU and memory to sut, the system-under-test processes.
func (d *daemons) window(ctx context.Context, spec loopSpec, sut []*proc) (*measured, error) {
	cpu0, err := cpuSecsOf(sut)
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, p := range sut {
		pids = append(pids, p.pid())
	}
	rss := sampleRSS(pids...)
	res := d.loop(ctx, spec)
	rssMiB := rss.finish()
	cpu1, err := cpuSecsOf(sut)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMiBOf(sut)
	if err != nil {
		return nil, err
	}
	m := &measured{
		latMs: res.roundMs, requests: res.requests, wallSecs: res.wallSecs,
		cpuSecs: cpu1 - cpu0, rssMiB: rssMiB, peakRSSMiB: peak,
		attempted: res.requests, failed: res.failed, notes: res.notes,
	}
	for _, class := range classNames {
		if ms := res.classMs[class]; len(ms) > 0 {
			m.notes = append(m.notes, fmt.Sprintf("class %-9s p50 %.2f ms (n=%d)", class, median(ms), len(ms)))
		}
	}
	return m, nil
}

// serveHot is the serve-hot workload: two clients, each issuing the fixed
// seven-request round against a warm local cutfitd, the second starting
// half a round late.
type serveHot struct{ *daemons }

func setupServe(ctx context.Context, e *env) (instance, error) {
	d, err := setupDaemons(ctx, e, true, e.trace)
	if err != nil {
		return nil, err
	}
	return serveHot{d}, nil
}

const serveClients = 2 // = nproc on the reference box

func (s serveHot) spec(d time.Duration) loopSpec {
	return loopSpec{
		p: s.c.local, reqs: serveRound(), clients: serveClients,
		stagger:  time.Duration(s.warmRoundMs / 2 * float64(time.Millisecond)),
		deadline: time.Now().Add(d), minRounds: 1,
	}
}

func (s serveHot) measure(ctx context.Context, d time.Duration) (*measured, error) {
	return s.window(ctx, s.spec(d), []*proc{s.c.local})
}

func (s serveHot) traced(ctx context.Context, d time.Duration, rec *recorder) (*tracedPart, error) {
	return runDaemonProbe(ctx, s.daemons, rec, probeOptions{
		primary: "serve", serveClients: serveClients,
		baseline: d / (2 * tracedShare), window: d / (2 * tracedShare),
	})
}

// dist2w is the dist-2w workload: one client issuing pagerank, cc and
// dynamicpr against a coordinator with two workers, every reply compared
// byte for byte with the local daemon's.
type dist2w struct{ *daemons }

func setupDist(ctx context.Context, e *env) (instance, error) {
	d, err := setupDaemons(ctx, e, e.trace, true)
	if err != nil {
		return nil, err
	}
	return dist2w{d}, nil
}

func (s dist2w) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m, err := s.window(ctx, loopSpec{
		p: s.c.coord, reqs: distRound(), ref: s.localBodies, clients: 1,
		deadline: time.Now().Add(d), minRounds: 1,
	}, s.c.distProcs())
	if err != nil {
		return nil, err
	}
	// A run that silently fell back to local execution still answers
	// correctly; only the coordinator's counter shows it.
	scr, err := s.c.scrape(ctx, s.c.coord)
	if err != nil {
		return nil, err
	}
	m.attempted++
	if n := scr.family("cutfit_dist_runs_total", `mode="fallback"`); n > 0 {
		m.failed++
		m.notes = append(m.notes, fmt.Sprintf("MISMATCH %g distributed runs fell back to local execution", n))
	}
	return m, nil
}

func (s dist2w) traced(ctx context.Context, d time.Duration, rec *recorder) (*tracedPart, error) {
	return runDaemonProbe(ctx, s.daemons, rec, probeOptions{
		primary: "dist", serveClients: 1,
		baseline: d / (2 * tracedShare), window: d / (2 * tracedShare),
	})
}

// probeRounds is how many rounds the probe issues against a part that is
// not the workload itself.
const probeRounds = 2

// probeOptions sizes a daemon probe. primary names the part that is the
// workload being traced ("serve", "dist" or neither): that part gets an
// untraced baseline and a timed window; the other gets probeRounds rounds.
type probeOptions struct {
	primary      string
	serveClients int
	baseline     time.Duration
	window       time.Duration
}

// probe is one run of the daemon probe.
type probe struct {
	ctx  context.Context
	d    *daemons
	rec  *recorder
	o    probeOptions
	part *tracedPart
}

// runDaemonProbe measures the cutfitd.* and dist.* layer metrics on a full
// fleet: traced serve rounds against the local daemon, the same calls
// in-process for the HTTP overhead, then traced distributed rounds against
// the coordinator, each followed by a local reference round. For the
// primary part it also yields the trace.*, store.* and scratch-pool values.
func runDaemonProbe(ctx context.Context, d *daemons, rec *recorder, o probeOptions) (*tracedPart, error) {
	p := &probe{ctx: ctx, d: d, rec: rec, o: o,
		part: &tracedPart{outcome: outcome{vals: make(values)}, edges: d.edges, text: d.text, probed: true}}
	if err := p.serve(); err != nil {
		return nil, err
	}
	if err := p.dist(); err != nil {
		return nil, err
	}
	return p.part, nil
}

// take books a loop's checks and spans to the probe.
func (p *probe) take(res loopResult) {
	p.part.attempted += res.requests
	p.part.failed += res.failed
	p.part.notes = append(p.part.notes, res.notes...)
	for _, r := range res.recs {
		p.rec.merge(r)
	}
}

// deadline is when a part's window ends: now for a part that only gets its
// minimum rounds.
func (p *probe) deadline(part string, d time.Duration) time.Time {
	if p.o.primary != part {
		return time.Now()
	}
	return time.Now().Add(d)
}

// primaryVals reports what only the workload's own part can: coverage and
// overhead (request spans and traced rounds against the untraced round
// median), the daemon's store counters over the traced rounds, and its
// scratch-pool reuse.
func (p *probe) primaryVals(base, traced loopResult, st0, st1 cutfit.CacheStats, dm promSample) {
	var reqSum []float64
	for i := range traced.roundMs {
		var t float64
		for _, ms := range traced.classMs {
			t += ms[i]
		}
		reqSum = append(reqSum, t)
	}
	vals := p.part.vals
	p50 := median(base.roundMs)
	vals.set("trace.coverage", median(reqSum)/p50, len(reqSum))
	vals.set("trace.overhead_frac", median(traced.roundMs)/p50-1, len(traced.roundMs))
	p.part.notes = append(p.part.notes, fmt.Sprintf("trace: untraced round p50 %.2f ms (n=%d), traced round p50 %.2f ms (n=%d)",
		p50, len(base.roundMs), median(traced.roundMs), len(traced.roundMs)))
	storeVals(vals, statsSince(st1, st0), len(traced.roundMs))
	reused, alloc := dm.family("cutfit_pregel_scratch_reused_total"), dm.family("cutfit_pregel_scratch_allocated_total")
	vals.set("pregel.scratch_reuse_frac", reuseFrac(reused, alloc), int(reused+alloc))
}

// serve measures the cutfitd.* metrics against the local daemon.
func (p *probe) serve() error {
	d, vals := p.d, p.part.vals
	spec := loopSpec{p: d.c.local, reqs: serveRound(), clients: p.o.serveClients, minRounds: probeRounds,
		stagger: time.Duration(d.warmRoundMs / 2 * float64(time.Millisecond))}
	var base loopResult
	if p.o.primary == "serve" {
		spec.deadline = time.Now().Add(p.o.baseline)
		base = d.loop(p.ctx, spec)
		p.take(base)
	}
	m0, err := d.c.scrape(p.ctx, d.c.local)
	if err != nil {
		return err
	}
	st0, err := d.c.cacheStats(p.ctx, d.c.local)
	if err != nil {
		return err
	}
	spec.traced, spec.traceBase = true, 1
	spec.deadline = p.deadline("serve", p.o.window)
	traced := d.loop(p.ctx, spec)
	p.take(traced)
	m1, err := d.c.scrape(p.ctx, d.c.local)
	if err != nil {
		return err
	}
	st1, err := d.c.cacheStats(p.ctx, d.c.local)
	if err != nil {
		return err
	}
	inproc, err := d.inProcessClasses(p.ctx, p.rec)
	if err != nil {
		return err
	}
	for _, class := range classNames {
		ms := traced.classMs[class]
		p50 := median(ms)
		vals.set("cutfitd.overhead_ms."+class, p50-inproc[class], len(ms))
		vals.set("cutfitd."+class+"_p90_ms", quantile(ms, 0.9), len(ms))
		if class == "measure" {
			vals.set("cutfitd.measure_p50_us", p50*1e3, len(ms))
		} else {
			vals.set("cutfitd."+class+"_p50_ms", p50, len(ms))
		}
	}
	vals.set("cutfitd.register_ms", d.registerMs, 1)
	vals.set("cutfitd.admission_queued", m1.family("cutfit_admission_queue_wait_seconds_count"), 1)
	vals.set("cutfitd.rejected", m1.family("cutfit_admission_rejected_total"), 1)
	if p.o.primary == "serve" {
		p.primaryVals(base, traced, st0, st1, m1.delta(m0))
	}
	return nil
}

// dist measures the dist.* metrics against the coordinator.
func (p *probe) dist() error {
	d, vals := p.d, p.part.vals
	var base loopResult
	if p.o.primary == "dist" {
		base = d.loop(p.ctx, loopSpec{p: d.c.coord, reqs: distRound(), ref: d.localBodies, clients: 1,
			minRounds: probeRounds, deadline: time.Now().Add(p.o.baseline)})
		p.take(base)
	}
	c0, err := d.scrapeAll(p.ctx, d.c.distProcs())
	if err != nil {
		return err
	}
	st0, err := d.c.cacheStats(p.ctx, d.c.coord)
	if err != nil {
		return err
	}
	// Each traced distributed round is followed by the same three requests
	// against the local daemon: the base of dist.over_local, measured under
	// the same conditions (one client, same moment).
	dist, local := newLoopResult(), newLoopResult()
	deadline := p.deadline("dist", p.o.window)
	for i := 0; i < probeRounds || time.Now().Before(deadline); i++ {
		dist.add(d.round(p.ctx, d.c.coord, distRound(), d.localBodies, p.rec, 100001+i, nil))
		local.add(d.round(p.ctx, d.c.local, distRound(), nil, p.rec, 200001+i, nil))
	}
	p.take(dist)
	p.take(local)
	c1, err := d.scrapeAll(p.ctx, d.c.distProcs())
	if err != nil {
		return err
	}
	st1, err := d.c.cacheStats(p.ctx, d.c.coord)
	if err != nil {
		return err
	}
	for _, alg := range distAlgs {
		dp50, lp50 := median(dist.classMs[alg]), median(local.classMs[alg])
		vals.set("dist."+alg+"_p50_ms", dp50, len(dist.classMs[alg]))
		vals.set("dist.over_local."+alg, dp50/lp50, len(dist.classMs[alg]))
		p.part.notes = append(p.part.notes, fmt.Sprintf("dist.over_local.%s base: local daemon p50 %.2f ms (n=%d)", alg, lp50, len(local.classMs[alg])))
	}
	dc := c1.delta(c0)
	barriers := dc.family("cutfit_dist_barrier_seconds_count")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	vals.set("dist.bytes_per_superstep", ratio(dc.family("cutfit_dist_bytes_total"), barriers), int(barriers))
	vals.set("dist.barrier_mean_ms", ratio(dc.family("cutfit_dist_barrier_seconds_sum"), barriers)*1e3, int(barriers))
	vals.set("dist.combine_ratio", ratio(dc.family("cutfit_dist_msgs_postcombine_total"), dc.family("cutfit_dist_msgs_precombine_total")), 1)
	// Shards shipped, their RPC time and fallbacks are totals since boot:
	// shipping happens in warm-up.
	shipped := func(family string) float64 {
		return c1.family(family, `rpc="ShardInstall"`) + c1.family(family, `rpc="ShardDelta"`)
	}
	vals.set("dist.shards_shipped", c1.family("cutfit_dist_shards_shipped_total", `kind="full"`)+c1.family("cutfit_dist_shards_shipped_total", `kind="delta"`), 1)
	vals.set("dist.shard_ship_ms", shipped("cutfit_dist_rpc_seconds_sum")*1e3, int(shipped("cutfit_dist_rpc_seconds_count")))
	fallbacks := c1.family("cutfit_dist_runs_total", `mode="fallback"`)
	vals.set("dist.fallbacks", fallbacks, 1)
	p.part.attempted++
	if fallbacks > 0 {
		p.part.failed++
		p.part.notes = append(p.part.notes, fmt.Sprintf("MISMATCH %g distributed runs fell back to local execution", fallbacks))
	}
	if p.o.primary == "dist" {
		p.primaryVals(base, dist, st0, st1, dc)
	}
	return nil
}

// scrapeAll sums the /metrics of several processes into one sample.
func (d *daemons) scrapeAll(ctx context.Context, ps []*proc) (promSample, error) {
	total := make(promSample)
	for _, p := range ps {
		s, err := d.c.scrape(ctx, p)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			total[k] += v
		}
	}
	return total, nil
}

// inProcessReps is how many timed calls per class the in-process twin of
// the serve round makes, after one warm call.
const inProcessReps = 3

// inProcessClasses issues each request class of the serve round as the
// library call its handler makes, on a warm Session over the same graph
// text, and returns the median per class in milliseconds: what the request
// costs without HTTP, JSON and admission.
func (d *daemons) inProcessClasses(ctx context.Context, rec *recorder) (map[string]float64, error) {
	g, err := cutfit.LoadEdgeList(bytes.NewReader(d.text))
	if err != nil {
		return nil, err
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	s2d := mustStrategy(fixedStrategy)
	call := map[string]func() error{
		"advise":  func() error { se.Advise(g, cutfit.ProfilePageRank, numParts); return nil },
		"measure": func() error { _, err := se.Measure(g, s2d, numParts); return err },
	}
	for _, alg := range algNames {
		iters := 0
		if alg == "pagerank" {
			iters = pagerankIters
		}
		call[alg] = func() error {
			rep, err := se.Run(ctx, g, s2d, numParts, alg, iters)
			if err != nil {
				return err
			}
			return d.x.checkRun(alg, rep)
		}
	}
	root := rec.begin(ladderTrace, 0, "benchmark", "in-process serve classes")
	defer rec.end(root)
	out := make(map[string]float64, len(call))
	for _, class := range classNames {
		if err := call[class](); err != nil { // warm
			return nil, fmt.Errorf("in-process %s: %w", class, err)
		}
		var ms []float64
		for i := 0; i < inProcessReps; i++ {
			t, err := rec.do(ladderTrace, root, "cutfit", "Session "+class, call[class])
			if err != nil {
				return nil, fmt.Errorf("in-process %s: %w", class, err)
			}
			ms = append(ms, t)
		}
		out[class] = median(ms)
	}
	return out, nil
}
