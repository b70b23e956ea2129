package pregel

import "cutfit/internal/obsv"

// Live metric series for the BSP engine, registered on the default
// registry at package init. Per-run aggregates stay in RunStats (the
// structured return value); these series are the process-wide streaming
// view: superstep latency and active-edge distributions across every
// run in the process, plus scratch-pool effectiveness and how partitions
// got their frontier index.
var (
	mFrontierIndex = obsv.Default.CounterVec("cutfit_pregel_frontier_index_total",
		"Partition frontier indexes made, by how: built by a counting sort, or carried from an append-only parent's.",
		"how")
	mFrontierBuilt   = mFrontierIndex.With("built")
	mFrontierCarried = mFrontierIndex.With("carried")

	hSuperstepSeconds = obsv.Default.Histogram("cutfit_pregel_superstep_seconds",
		"Wall time of one full BSP superstep (broadcast, compute, reduce, apply).",
		obsv.DefBuckets)
	hActiveEdges = obsv.Default.Histogram("cutfit_pregel_superstep_active_edges",
		"Edges examined per superstep after frontier filtering (dense scans count every edge).",
		obsv.CountBuckets)
	mScratchReused = obsv.Default.Counter("cutfit_pregel_scratch_reused_total",
		"Engine runs that checked their buffer set out of the scratch pool instead of allocating.")
	mScratchAllocated = obsv.Default.Counter("cutfit_pregel_scratch_allocated_total",
		"Engine runs that allocated a fresh buffer set (pool empty, reuse disabled, or first run).")
)
