// Package dist runs Pregel supersteps across processes: a coordinator that
// owns graph registration, partition→worker placement and the superstep
// barrier, plus N workers that each own a subset of partitions and execute
// the compute scans.
//
// The split follows the engine's Exchanger seam (pregel.RunExchanged):
// superstep 0, message application and loop control stay in the
// coordinator's engine — literally the same code the local path runs —
// while broadcast, compute and reduce travel over the wire. A superstep
// sends each changed vertex once to every worker that mirrors it; the worker
// records the values by vertex and scans its partitions in parallel through
// pregel.ShardCompute, whose partitions pull their mirror values and derive
// their frontiers with the engine's own pullMirrors and scan with its
// computePart, so candidate edges are visited in the
// identical ascending order; the coordinator validates the replies as they
// arrive and merges them sharded by vertex range, each vertex's messages in
// ascending partition order, so float64 message combines happen in the
// identical sequence: a distributed run is bit-identical to pregel.Run on the
// same assignment.
//
// Shards ship as internal/snap containers (KindShard), content-addressed by
// graph fingerprint plus a topology checksum, each new generation whole
// (a shard one worker already holds ships nothing). The wire codec is a
// plain HTTP/1.1+JSON/binary-frame transport behind the Transport
// interface, so a gRPC transport can slot in without touching the
// coordinator or worker logic. docs/DISTRIBUTED.md documents the protocol;
// the ProtocolMessages table in protocol.go is its single source of truth.
package dist
