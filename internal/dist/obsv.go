package dist

import "cutfit/internal/obsv"

// Live metric series for the distributed runtime, registered on the default
// registry at package init. The coordinator side instruments every RPC and
// the barrier; the worker side counts requests by endpoint and status so a
// scrape of either process tells the whole story. All families appear in
// the docs/OPERATIONS.md catalog (enforced by TestOperationsDocCoversMetrics).
var (
	hRPCSeconds = obsv.Default.HistogramVec("cutfit_dist_rpc_seconds",
		"Coordinator-observed wall time of one worker RPC, by rpc name.",
		obsv.DefBuckets, "rpc")
	cRPCErrors = obsv.Default.CounterVec("cutfit_dist_rpc_errors_total",
		"Worker RPCs that failed (transport error or non-2xx), by rpc name.",
		"rpc")
	hBarrierSeconds = obsv.Default.Histogram("cutfit_dist_barrier_seconds",
		"Wall time of one superstep barrier: slowest worker's exchange round trip.",
		obsv.DefBuckets)
	cBytes = obsv.Default.CounterVec("cutfit_dist_bytes_total",
		"Frame payload bytes shipped over the wire, by direction (broadcast|reduce).",
		"direction")
	cMsgsPre = obsv.Default.Counter("cutfit_dist_msgs_precombine_total",
		"Messages emitted by distributed compute scans before worker-local combining.")
	cMsgsPost = obsv.Default.Counter("cutfit_dist_msgs_postcombine_total",
		"Combined messages that actually crossed the wire in reduce frames.")
	cRuns = obsv.Default.CounterVec("cutfit_dist_runs_total",
		"Runs dispatched to the cluster, by outcome mode (distributed|fallback).",
		"mode")
	cShards = obsv.Default.CounterVec("cutfit_dist_shards_shipped_total",
		"Shard transfers by kind: full container shipped, or reused (already installed).",
		"kind")
	cWorkerRequests = obsv.Default.CounterVec("cutfit_dist_worker_requests_total",
		"Worker-side HTTP requests, by endpoint name and status code.",
		"endpoint", "code")
)
