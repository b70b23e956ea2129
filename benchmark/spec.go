package main

import "encoding/json"

// This file is the single definition of the benchmark's names: the five
// workloads, the end-to-end metrics and the per-layer metrics. BENCHMARK.json
// at the repository root is this table rendered by `-spec`; spec_test.go
// fails when the two drift.

// Fixed parameters of every workload (README.md, "Inputs").
const (
	numParts      = 64 // partitions everywhere
	scaleG262k    = 15 // R-MAT scale: 262,144 edges
	scaleG524k    = 16 // 524,288 edges
	scaleG1M      = 17 // 1,048,576 edges
	edgeFactor    = 8
	defaultSeed   = 1
	runSeconds    = 15 // BENCHMARK.json run_seconds: the untraced timed window
	setupReps     = 5  // set-ups per run; setup_s is their median
	pagerankIters = 10
	fixedStrategy = "2D" // every workload but tailor-cold pins the strategy
)

// The algorithms cutfitd serves, in the order a serve-hot round issues them.
var algNames = []string{"pagerank", "cc", "dynamicpr", "sssp", "triangles"}

// distAlgs are the algorithms a coordinator dispatches to workers.
var distAlgs = []string{"pagerank", "cc", "dynamicpr"}

// classNames are the request classes of a serve-hot round: the five runs
// plus the advisor and the hot metrics lookup.
var classNames = append(append([]string{}, algNames...), "advise", "measure")

// paperStrategies are the six strategies of the paper, the candidates of
// every Select in tailor-cold.
var paperStrategies = []string{"RVC", "1D", "2D", "CRVC", "SC", "DC"}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"tailor-cold", "The paper's workflow cold and in-process (ingest text, select over six strategies, run pagerank) on 524k edges: the only workload where ingest, assign x6, metrics and the cold build dominate."},
	{"serve-hot", "Two closed-loop clients against a warm cutfitd on 262k edges (five algorithms, advise, metrics per round): store hits only, so engine scans, the advisor and handler overhead carry the time."},
	{"stream-update", "Append/retract cycles on a caching Session over 1M edges with cc after each step: the write side (Grow/Shrink, Extend, ApplyDelta, delta chains, LRU eviction) that the cold workloads never touch."},
	{"warm-restart", "RestoreSession from a snapshot file (524k edges, six assignments, 2D topology) then cc: the durable path (snap decode, re-validation, store.Restore) that nothing else exercises."},
	{"dist-2w", "pagerank/cc/dynamicpr through a coordinator and two cutfit-worker processes on loopback (262k edges), checked byte-equal against a local daemon: internal/dist frames, barrier and codec do the work."},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the system sees; every workload reports
// every one of them. Bound is the share of the parent's median by which the
// metric may worsen. It is the same for all four because the floor is the
// host's, not the metric's: on the 2-vCPU reference VM a pure-CPU loop
// drifts by a fifth over minutes, and ten same-seed, same-binary runs of one
// workload have spread their medians 6-9 % in a calm spell and 26 % in a
// bad one (README.md, "Calibration"). All four are medians; nothing mean-based
// and no extreme value is bounded, because a handful of operations that
// overlap a collection of the 1 GiB stream-update heap halve a mean, and a
// Go process's resident high-water mark is set by where in a collection
// cycle its largest transient allocations happen to fall.
var endToEndDefs = []metricDef{
	{"result_p50_ms", "ms", lower, 0.25},
	{"cpu_s_per_result", "s", lower, 0.25},
	{"rss_p50_mb", "MiB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayerDefs lists the traced pass's metrics, <layer>.<name> with the
// repository's package names as layers.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }

	add("graph.ingest_ms", "ms", lower)
	add("graph.ingest_mb_per_s", "MB/s", higher)
	add("graph.grow_ms", "ms", lower)
	add("graph.shrink_ms", "ms", lower)

	for _, s := range paperStrategies {
		add("partition.assign_ms."+s, "ms", lower)
	}
	add("partition.extend_ms", "ms", lower)
	add("metrics.from_assignment_ms", "ms", lower)
	add("core.select_self_ms", "ms", lower)
	add("core.advise_ms", "ms", lower)

	add("pregel.build_ms", "ms", lower)
	add("pregel.patch_append_ms", "ms", lower)
	add("pregel.patch_shrink_ms", "ms", lower)
	add("pregel.patch_over_rebuild", "ratio", lower)
	for _, a := range algNames {
		add("algorithms.run_ms."+a, "ms", lower)
		add("pregel.supersteps."+a, "count", lower)
		add("pregel.edges_scanned."+a, "count", lower)
		add("pregel.active_edges."+a, "count", lower)
		add("pregel.net_msgs."+a, "count", lower)
		add("pregel.scan_useful_frac."+a, "ratio", higher)
		add("cluster.model_error_ratio."+a, "ratio", lower)
	}
	add("pregel.medges_per_s.pagerank", "Medges/s", higher)
	add("pregel.compute_imbalance.pagerank", "ratio", lower)
	add("pregel.scratch_reuse_frac", "ratio", higher)

	add("store.hit_frac", "ratio", higher)
	add("store.delta_derived", "count", higher)
	add("store.evictions", "count", lower)
	add("store.bytes_mb", "MiB", lower)
	add("store.resolve_hit_us", "us", lower)
	add("store.overhead_ms", "ms", lower)
	add("store.persist_ms", "ms", lower)
	add("store.restore_ms", "ms", lower)
	add("store.snapshot_mb", "MiB", lower)
	add("store.restore_over_rebuild", "ratio", lower)
	add("store.disk_hit_ms", "ms", lower)

	add("snap.encode_graph_ms", "ms", lower)
	add("snap.decode_graph_ms", "ms", lower)
	add("snap.encode_topology_ms", "ms", lower)
	add("snap.decode_topology_ms", "ms", lower)
	add("snap.decode_mb_per_s", "MB/s", higher)

	add("dist.bytes_per_superstep", "B", lower)
	add("dist.barrier_mean_ms", "ms", lower)
	add("dist.combine_ratio", "ratio", lower)
	add("dist.shards_shipped", "count", lower)
	add("dist.shard_ship_ms", "ms", lower)
	add("dist.fallbacks", "count", lower)
	for _, a := range distAlgs {
		add("dist."+a+"_p50_ms", "ms", lower)
		add("dist.over_local."+a, "ratio", lower)
	}

	for _, c := range classNames {
		add("cutfitd.overhead_ms."+c, "ms", lower)
		add("cutfitd."+c+"_p90_ms", "ms", lower)
		if c != "measure" {
			add("cutfitd."+c+"_p50_ms", "ms", lower)
		}
	}
	add("cutfitd.measure_p50_us", "us", lower)
	add("cutfitd.register_ms", "ms", lower)
	add("cutfitd.admission_queued", "count", lower)
	add("cutfitd.rejected", "count", lower)

	add("trace.coverage", "ratio", higher)
	add("trace.overhead_frac", "ratio", lower)
	return d
}

// exactCounts are the per-layer metrics that must repeat exactly for a
// fixed seed; -agree compares them bit for bit.
func exactCounts() []string {
	names := []string{"store.delta_derived", "dist.shards_shipped", "dist.fallbacks"}
	for _, a := range algNames {
		names = append(names, "pregel.supersteps."+a, "pregel.edges_scanned."+a, "pregel.net_msgs."+a)
	}
	return names
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
