# Tier-1 verification and benchmark targets. `make check` is the one
# command a PR must keep green: build, tests (the nested benchmark module's
# too: it imports internal packages, and `go test ./...` from the root never
# builds it), vet, the race determinism suite and a short fuzz smoke in one
# run.

GO ?= go

.PHONY: all build test benchmark-test benchmark vet lint loc race bench bench-smoke bench-scale bench-scale-xl fuzz fuzz-smoke compat check

all: check

build:
	$(GO) build ./...

# Every package carries tests: a `[no test files]` line fails the target.
test:
	@out=$$($(GO) test ./... 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep '\[no test files\]'; then \
		echo "make test: the packages above have no tests"; exit 1; \
	fi

# Unit tests of the benchmark program (BENCHMARK.json, benchmark/): a nested
# module, so `go test ./...` from the root never reaches them.
benchmark-test:
	cd benchmark && $(GO) test .

# The benchmark itself: both passes of all five workloads (~4.5 min). Exits
# non-zero on any wrong result, non-200 reply or local fallback; the nightly
# workflow runs the same command and archives its output.
benchmark:
	bash benchmark/run.sh

vet:
	$(GO) vet ./...

# Formatting + vet (+ staticcheck when installed) — the CI lint job.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Non-test Go lines of the root module per package, and their total against
# the line budget (ROADMAP item 12: at most 20,700). Counted as
# `find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' |
# xargs cat | wc -l` counts them; fails over the budget. The CI lint job
# runs it.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); \
		n[d == "" ? "cutfit" : "cutfit/" d] += $$1; t += $$1 } \
	END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%6d  total (budget 20700)\n", t; \
		if (t > 20700) { print "make loc: over the line budget"; exit 1 } }'

# Race determinism regression for the parallel partition build, the
# parallel hash assignment, the scratch-pool engine, the serving layer
# (store single-flight, Session mixed workload, cutfitd handlers: appends,
# slides and re-registrations racing runs, advise and metrics), the
# delta-append path (root equivalence suite, graph generations, store
# chain, topology patching; generations extending one shared edge array and
# runs reviving one lineage's scratch, from eight goroutines at once; a patch
# carrying a parent's frontier index while a run is building it), the
# persistence layer (snap codecs, disk tier spill/restore, warm-start
# handlers), the distributed runtime (coordinator/worker exchange over
# loopback sockets, equivalence and failure suites, hostile step frames, a
# cancelled superstep, the vertex-frame ingest, mirror pull and parallel scan against
# the per-slab oracle; a coordinator cutfitd against a local one, reply for
# reply, across an append), the Triangle Count kernel (shared plan, pooled
# mark sets, equivalence with the reference at one and many workers), the
# fixed-width shortest-paths program (equivalence with its map-valued
# reference on fresh and revived scratches, one and eight workers), cold
# tailoring (the chunked text parser against its line-by-line reference at
# every chunk boundary; candidates measured concurrently against the
# sequential selection, finishing in a forced order), the cutfit CLI on
# an edgeless input and `cutfit paper`'s goldens, and seeded starts (root package: the cc equivalence
# matrix, the retraction shapes, the 700-step stateful model test with
# answers evicted mid-chain, eight goroutines seeding sibling generations off
# one parent answer), and the block tier (eight goroutines interleaving
# every read of one file-backed store). The graph package's chunked text
# ingest, the engine, the distributed runtime, the selection fan-out and the
# metrics it calls, the Triangle Count kernel and the store's parallel
# restore run at -cpu 1,4: every fan-out sizes itself by GOMAXPROCS, so
# their parallel paths are exercised with all goroutines interleaved on one
# thread and truly concurrent on four.
race:
	$(GO) test -race . ./cmd/cutfit/... ./cmd/cutfitd/... ./cmd/cutfit-worker/... ./internal/testutil/... ./internal/partition/... ./internal/snap/... ./internal/obsv/...
	$(GO) test -race -cpu 1,4 ./internal/graph/... ./internal/par/... ./internal/pregel/... ./internal/dist/... ./internal/core/... ./internal/metrics/... ./internal/algorithms/... ./internal/store/...

# Hot-path benchmarks: partition construction (old vs new, and across
# dataset analogs × strategies), the sparse-frontier scan payoff, an append
# step's carried frontier index against the counting sort it replaces,
# per-superstep allocation footprint, the single-pass selection pipeline,
# the compact worker sweep (w1 against wmax: the inline multi-core scaling
# signal), the two loaders (text ingest, snapshot restore against rebuild),
# one whole cold tailoring (text to ranks: the tailor-cold operation, for
# profiles and bytes per operation), a stream-update cycle on a caching
# Session (bytes allocated per generation step, live heap per cached byte),
# whole distributed runs on two loopback workers and a warm served sssp
# request (allocs/op: per superstep and partition, never per vertex or
# message). For profiles and per-operation costs; a speed claim cites a
# BENCHMARK.json metric from `make benchmark` instead.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkPartitionBuild|BenchmarkSparseFrontier|BenchmarkCarryFrontierIndex' -benchmem ./internal/pregel/
	$(GO) test -run='^$$' -bench='BenchmarkDistRun' -benchmem ./internal/dist/
	$(GO) test -run='^$$' -bench='BenchmarkPartitionBuild|BenchmarkSuperstepAllocs|BenchmarkSelectEmpirically|BenchmarkMeasureThenRun|BenchmarkTriangleCount|BenchmarkScalingSweep|BenchmarkReadEdgeList|BenchmarkTailorCold|BenchmarkRestoreVsRebuild|BenchmarkStreamCycle|BenchmarkServedSSSP' -benchmem .

# Out-of-core scale family: the 1M and 10M R-MAT cells, dense vs block
# tier, one iteration each — the dense-vs-block peak-heap-MB and wall
# ratios the paper reproduction claims. Nightly runs this and archives
# the output.
bench-scale:
	$(GO) test -run='^$$' -bench='BenchmarkScale/' -benchtime=1x -benchmem -timeout=30m .

# Opt-in 100M-edge cell (block tier only; needs ~2 GiB free and tens of
# minutes). Guarded by CUTFIT_SCALE_XL so it never runs in PR CI.
bench-scale-xl:
	CUTFIT_SCALE_XL=1 $(GO) test -run='^$$' -bench='BenchmarkScaleXL' -benchtime=1x -benchmem -timeout=120m .

# One-iteration pass over the concurrent-serving benchmarks: fast enough
# for CI, still executes the pooled/fresh and hit/miss paths end to end.
# Then ten stream-update cycles, which fail unless both cc runs of a cycle
# start from the parent generation's answer (seeded/op ≥ 1.9), or when a
# step builds a frontier index its parent's could have been carried into
# (an append) or shared with (a retraction; index_built/op and
# index_carried/op count both ways).
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkConcurrentRuns|BenchmarkSessionCache' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkStreamCycle$$' -benchtime=10x -benchmem .

# Longer fuzz session: the edge-list ingest path (round trip, and the parser
# against its strconv reference), the retraction resolver (bit filter
# against one map probe per edge), the incremental topology
# patchers (delta append and shrink/slide-window, each cross-checked
# against a full rebuild), the dense/sparse/auto engine scan equivalence
# (including density-threshold crossovers mid-run), the fixed-width
# shortest-paths program against its map-valued reference (random graphs and
# landmark sets, duplicates and absent landmarks included), the snapshot
# decoders (container parsing + the assignment codec, seeded from the
# golden corpus), a whole-store restore (snapshot bytes through
# Store.Restore, seeded from a real snapshot, its truncations, bit flips and
# resealed identity mismatches: an error or a restored store, never a panic
# or a hang), the distributed worker's step endpoint (arbitrary
# broadcast frames against a bound run) and its shard-install endpoint
# (arbitrary shard containers, seeded from a real one and its mutations:
# 204 or 400, and an installed shard indexes only inside its own tables),
# and a whole caching Session under
# scripts of register / append / remove / slide / run steps, every cc run
# (seeded from the parent generation's answer or cold) against union-find
# over a model of the live edges and every cached answer against the stamp
# invariant (its inputs are long, so minimizing an interesting one is capped:
# the default minute would be most of a short session). FUZZTIME is per
# target; the nightly workflow raises it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzStreamEdgeList -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzResolveRetractions -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDelta -fuzztime=$(FUZZTIME) ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzApplyShrink -fuzztime=$(FUZZTIME) ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzFrontierScanEquivalence -fuzztime=$(FUZZTIME) ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzHopDistances -fuzztime=$(FUZZTIME) ./internal/algorithms/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/snap/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAssignment -fuzztime=$(FUZZTIME) ./internal/snap/
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzStepFrame -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzShardInstall -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzSessionStream -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s .

# Seconds-long fuzz smoke for make check: long enough to catch parser,
# delta-patch, snapshot-decoder, store-restore, step-frame and shard-install regressions
# on the seed corpus, short enough for every PR.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=5s ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzStreamEdgeList -fuzztime=5s ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzResolveRetractions -fuzztime=5s ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDelta -fuzztime=5s ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzApplyShrink -fuzztime=5s ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzFrontierScanEquivalence -fuzztime=5s ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzHopDistances -fuzztime=5s ./internal/algorithms/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=5s ./internal/snap/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAssignment -fuzztime=5s ./internal/snap/
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=5s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzStepFrame -fuzztime=5s ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzShardInstall -fuzztime=5s ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzSessionStream -fuzztime=5s -fuzzminimizetime=1s .

# Golden-corpus compatibility gate: the committed format-v1 snapshots must
# re-encode byte-identically and decode to bit-identical artifacts. Run by
# the CI test job as its own step so a format break is named in the UI.
compat:
	$(GO) test -run='TestGolden' -count=1 ./internal/snap/

check: build test benchmark-test vet race fuzz-smoke
