package dist

// ProtocolMessage names one element of the coordinator↔worker protocol: an
// RPC endpoint, a binary frame format, or a shipped artifact. The table
// below is the protocol's single source of truth — the worker mux is built
// from it (see Worker.Handler) and docs/DISTRIBUTED.md must name every
// entry (enforced by the doc drift guard), so an endpoint cannot exist
// without being documented, nor be documented without existing.
type ProtocolMessage struct {
	Name  string // stable identifier, named in docs/DISTRIBUTED.md
	Kind  string // "rpc", "frame" or "artifact"
	Route string // "METHOD /path" for rpc entries, empty otherwise
	Doc   string // one-line summary
}

// ProtocolMessages is the v1 protocol. Routes use Go 1.22 method patterns;
// {id} is the coordinator-chosen run identifier.
var ProtocolMessages = []ProtocolMessage{
	{
		Name:  "Health",
		Kind:  "rpc",
		Route: "GET /dist/v1/healthz",
		Doc:   "liveness + shard count, polled by the coordinator's Status",
	},
	{
		Name:  "ShardInstall",
		Kind:  "rpc",
		Route: "POST /dist/v1/shards",
		Doc:   "install a full shard container under its content-addressed key",
	},
	{
		Name:  "RunStart",
		Kind:  "rpc",
		Route: "POST /dist/v1/runs",
		Doc:   "bind a run id to a shard + algorithm spec (404 if the shard is missing, 400 if the algorithm's table entry refuses the spec)",
	},
	{
		Name:  "SuperstepExchange",
		Kind:  "rpc",
		Route: "POST /dist/v1/runs/{id}/step",
		Doc:   "one barrier round trip: broadcast frame in, reduce frame out",
	},
	{
		Name:  "RunFinish",
		Kind:  "rpc",
		Route: "POST /dist/v1/runs/{id}/finish",
		Doc:   "release the run's compute state (best-effort)",
	},
	{
		Name: "RunSpec",
		Kind: "frame",
		Doc:  "JSON body of RunStart: run, shard, algorithm, iters, tol, resetProb",
	},
	{
		Name: "BroadcastFrame",
		Kind: "frame",
		Doc:  "binary changed master values, one (global index, value) pair per vertex mirrored on the worker",
	},
	{
		Name: "ReduceFrame",
		Kind: "frame",
		Doc:  "binary mirror→master combined messages plus compute stats, every owned partition",
	},
	{
		Name: "ShardContainer",
		Kind: "artifact",
		Doc:  "internal/snap KindShard container: vertex table, out-degrees, owned partition tables",
	},
}

// RunSpec is the JSON body of RunStart: everything a worker needs to
// instantiate exactly the coordinator's Pregel program over an installed
// shard.
type RunSpec struct {
	Run       string  `json:"run"`
	Shard     string  `json:"shard"`
	Algorithm string  `json:"algorithm"`
	Iters     int     `json:"iters"`
	Tol       float64 `json:"tol"`
	ResetProb float64 `json:"resetProb"`
}

// HeaderShardKey carries the content-addressed key a ShardInstall payload
// installs under.
const HeaderShardKey = "X-Cutfit-Shard-Key"
