# Single entry point for local development and CI (.github/workflows/ci.yml
# calls these same targets so the two never drift).

GO ?= go

.PHONY: all build test race lint fuzz results-check serve-check bench bench-decode bench-ingest bench-serve bench-check bench-tier bench-e2e bench-e2e-compare test-faults test-crash test-tier test-cluster test-stream test-deflaked clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection matrix: one pass with the fixed seed baked into the
# tests, then one randomized smoke pass (the chosen seed is logged so any
# failure is replayable with ADA_FAULT_SEED=<seed>).
test-faults:
	$(GO) test -race -count=1 ./internal/faultfs/
	$(GO) test -race -count=1 -run 'Fault|ServerDrain|ConcurrentClose' ./internal/rpc/
	ADA_FAULT_SEED=random $(GO) test -race -count=1 -v -run 'FaultWorkloadSeed' ./internal/rpc/

# Crash-consistency matrix: the kill-point sweep (crash after every Nth
# store op during an ingest, then recover) plus the rest of the durability
# suite — recovery classification, checkpoint resume, verified reads with
# replica failover, fsck verdicts, and the background scrubber.
test-crash:
	$(GO) test -race -count=1 -run 'Crash|Recover|Resume|Failover|Fsck|Scrub|Checksum' ./internal/core/

# lint = vet + gofmt cleanliness. gofmt -l prints offending files; the
# test -z turns any output into a nonzero exit. The second vet builds for a
# big-endian target (s390x), so the raw conversion's per-atom fallback, the
# path such a host takes, keeps compiling.
lint:
	$(GO) vet ./...
	GOARCH=s390x $(GO) vet ./...
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Ten seconds of native fuzzing per parser that takes bytes from outside —
# the xtc, dcd and trr frame decoders (the xtc one differential against the
# two-pass reference decoder), the positional bit reader the xtc decoder
# reads through (against a bit-at-a-time reference), the xtc frame index a dropping holds,
# the rpc client's read-reply parser, the node's request-frame reader and
# its per-op request decoding, the placement table a peer serves, the
# container index every dropping resolves through, the live head a tailing reader gates on, the ingest
# journal recovery and resume read, the manifest and label file (with
# their range lists) every tagged read resolves through, the PDB structure
# ingest and `mol new` parse, and adanode's -tier-spec (rule: no panic, a
# typed error or a result, allocation
# bounded by input length; an accepted index tiles the stream with positive
# entries whose ends fit an int64; an accepted table places any directory on
# exactly R distinct table nodes; an accepted tier spec has finite
# watermarks with 0 < low <= high <= 1).
# The seed corpora already run under plain `go test`; this looks past them.
# Minimization is capped per input: at its 60 s default, shrinking the first
# coverage-expanding DCD stream outlasts the whole run (measured: 118
# execs/s against 13 000 with the cap).
FUZZTIME ?= 10s
FUZZFLAGS = -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
fuzz:
	$(GO) test $(FUZZFLAGS) -fuzz FuzzDecodeFrame ./internal/xtc
	$(GO) test $(FUZZFLAGS) -fuzz FuzzBitReader ./internal/xdr
	$(GO) test $(FUZZFLAGS) -fuzz FuzzUnmarshalIndex ./internal/xtc
	$(GO) test $(FUZZFLAGS) -fuzz FuzzDCDReader ./internal/dcd
	$(GO) test $(FUZZFLAGS) -fuzz FuzzTRRReader ./internal/trr
	$(GO) test $(FUZZFLAGS) -fuzz FuzzReadReply ./internal/rpc
	$(GO) test $(FUZZFLAGS) -fuzz FuzzReadFrame ./internal/rpc
	$(GO) test $(FUZZFLAGS) -fuzz FuzzDispatch ./internal/rpc
	$(GO) test $(FUZZFLAGS) -fuzz FuzzPlacementTable ./internal/placement
	$(GO) test $(FUZZFLAGS) -fuzz FuzzContainerIndex ./internal/plfs
	$(GO) test $(FUZZFLAGS) -fuzz FuzzLiveHead ./internal/core
	$(GO) test $(FUZZFLAGS) -fuzz FuzzJournal ./internal/core
	$(GO) test $(FUZZFLAGS) -fuzz FuzzManifest ./internal/core
	$(GO) test $(FUZZFLAGS) -fuzz FuzzLabels ./internal/core
	$(GO) test $(FUZZFLAGS) -fuzz FuzzPDBParse ./internal/pdb
	$(GO) test $(FUZZFLAGS) -fuzz FuzzTierSpec ./internal/tier

# adabench is deterministic — a virtual clock, fixed seeds — so RESULTS.txt
# is checked, not trusted: any change to the cost model, the simulated
# devices or an experiment shows up as a diff here. After an intended change
# regenerate it (`go run ./cmd/adabench > RESULTS.txt`) in the same commit.
results-check:
	$(GO) run ./cmd/adabench | diff - RESULTS.txt

# The serve-fabric baseline is checked the same way: Simulate runs on a
# virtual clock, so a fresh adaload run must reproduce BENCH_serve.json byte
# for byte — any scheduling or admission drift shows up as a diff, however
# small. After an intended change regenerate it with `make bench-serve` in
# the same commit.
serve-check:
	$(GO) run ./cmd/adaload | $(GO) run ./cmd/benchjson | diff - BENCH_serve.json

# Node-kill fault matrix: the placement suite (consistent-hash table,
# replicated reads/writes, failover, rebalance) plus the headline matrix —
# a 3-node R=2 cluster over real TCP, nodes killed or partitioned mid-read
# and mid-ingest at swept points, asserting byte-identical degraded reads
# and exactly-R-copies recovery. Per-cell outcomes land in
# cluster-matrix.tsv for the CI artifact. The cmd tests cover the operator
# flow (adanode -cluster-table/-join, adactl cluster).
test-cluster:
	ADA_CLUSTER_MATRIX_OUT=$(CURDIR)/cluster-matrix.tsv \
		$(GO) test -race -count=1 ./internal/placement/
	$(GO) test -race -count=1 -run 'Cluster' ./internal/core/ ./internal/vmd/ ./cmd/adanode/ ./cmd/adactl/
	@test -s cluster-matrix.tsv && { echo; echo "node-kill matrix:"; cat cluster-matrix.tsv; }

# Streaming-ingest suite: the live subsystem end to end under -race — the
# tailing source (including the headline test: a producer appending
# directly is killed mid-append by fault injection while concurrent readers
# tail, every observed prefix identical to the final sealed container), the
# core live writer/reader with the mid-append kill-point sweep, the rpc
# watch long-poll, and the serve fabric's live handles.
test-stream:
	$(GO) test -race -count=1 ./internal/stream/
	$(GO) test -race -count=1 -run 'Live|Tail|Watch' \
		./internal/core/ ./internal/rpc/ ./internal/serve/ ./cmd/adactl/

# The scheduling-dependent tests — the decode-ahead lookahead bound (the
# consumer held, then Close mid-stream), Stop waiting out the decoder, the
# sequential readers' fetch ahead (Close mid-stream and mid-read, a corrupt
# frame's sticky error, two reads in flight on a real store and one in
# stream order under a virtual clock), a node sending read replies from the
# file (the wire bytes of the copy path, one handle read on two
# connections, a file cut under a read; the send counted by Instrument and
# HeatFS), a replica read that fails and drops its handle sparing a read
# still in flight on it, a live Append handing its batch back with no
# decoder still reading it, a live Append returning while its head lands in
# the background (the next Append waiting for it, a failed put sticky, Abort
# and Seal waiting it out, frames reused across batches), tailing readers
# across a seal and a kill, and
# the serve fabric's read-ahead (a waiter on a failed ahead flight, Close
# with ahead flights queued and in service, counts taken once idle) —
# repeated, so a regression in any shows up in CI rather than once a week.
test-deflaked:
	$(GO) test -race -count=10 -run 'TestAheadReaderLookaheadBounded|TestAheadReaderStopWaits' ./internal/xtc/
	$(GO) test -race -count=20 -run 'TestSubsetReaderCloseMidStream|TestSubsetReaderCorruptFrameIsSticky|TestFullReaderCloseWhileFetching|TestSubsetReaderTwoReadsInFlight|TestSubsetReaderVirtualClockReadsInOrder' ./internal/core/
	$(GO) test -race -count=20 -run 'TestSendfile' ./internal/rpc/
	$(GO) test -race -count=20 -run 'TestSendRange' ./internal/osfs/
	$(GO) test -race -count=20 -run 'TestInstrumentForwardsSend' ./internal/vfs/
	$(GO) test -race -count=20 -run 'TestHeatFSRecordsSends' ./internal/tier/
	$(GO) test -race -count=20 -run 'TestClusterFailedCopySparesOtherReads' ./internal/placement/
	$(GO) test -race -count=20 -run 'TestLiveAppendReleasesBatch|TestLiveAppendReturnsWhileHeadLands|TestLiveFailedHeadPutIsSticky|TestLiveEndWithHeadInFlight|TestLiveAppendReusesFrames|TestFailedStartLeavesNoDecoder' ./internal/core/
	$(GO) test -race -count=10 -run 'TestTailSeesEveryPrefix' ./internal/stream/
	$(GO) test -race -count=10 -run 'TestReadAhead|TestAheadFailureNotInherited|TestLiveHandleNeverReadsAhead|TestCloseWithAheadFlights|TestFabricServesAndCaches|TestSimAndFabricAgree' ./internal/serve/

# Heat-driven tiering suite: tracker/planner/spec units, the HeatFS feeder,
# the deterministic two-dataset migration end-to-end, read-during-migration
# byte-identity, the migration kill-point sweep extending the crash matrix,
# and adanode's heat wiring over rpc — all under -race.
test-tier:
	$(GO) test -race -count=1 ./internal/tier/
	$(GO) test -race -count=1 -run 'MoveSubset|ReadDuringMigration|CrashMidMigration' ./internal/core/
	$(GO) test -race -count=1 -run 'Tier|Heat' ./cmd/adanode/

# One iteration of every benchmark — a smoke pass proving the bench
# harness still runs end to end, not a measurement.
bench: bench-decode bench-ingest bench-serve bench-tier
	$(GO) test -bench=. -benchtime=1x ./...

# Decode benchmarks rendered to BENCH_decode.json (ns/op, MB/s, allocs/op,
# cpus: one frame, a serial stream, a tagged subset loaded, the whole dataset
# reassembled from its subsets, and a cold viewer playing the subset in order
# through a serve fabric, the last three over three loopback rpc nodes) for
# the CI artifact and regression tracking.
bench-decode:
	$(GO) test -run '^$$' -bench 'StreamDecode|XTCDecode|SubsetLoad|FullLoad|FabricPlayback' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_decode.json

# Ingest wire-speed benchmarks (fused XTC encode, the one-pass subset split
# and raw encode of a full frame, end-to-end ingest over in-memory backends
# through both entry points of the one ingest loop, and a live session's
# five-frame Appends and Seal over three loopback rpc nodes) rendered to
# BENCH_ingest.json for the CI artifact and regression tracking.
bench-ingest:
	$(GO) test -run '^$$' -bench 'XTCEncode|SubsetWrite|IngestParallel|LiveAppend' -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_ingest.json

# Serve-fabric latency baseline: cmd/adaload replays the standard
# multi-tenant workload (interactive viewers vs a saturating bulk scan)
# through the deterministic fabric simulator and benchjson renders the
# per-tenant/per-class p50/p99 latencies to BENCH_serve.json. Virtual-clock
# percentiles are bit-identical run to run, so serve-check holds them to
# exact equality.
bench-serve:
	$(GO) run ./cmd/adaload | $(GO) run ./cmd/benchjson > BENCH_serve.json

# Perf-regression gate: run the decode and ingest benchmarks fresh and diff
# them against the committed baselines. Fails (nonzero exit) when any
# benchmark slows past BENCH_MAX_REGRESS percent (the run records a "cpus"
# metric benchjson reads to compare across machines). The delta tables land
# in bench-delta.txt and bench-ingest-delta.txt for the CI artifact. The
# serve-fabric baseline is exact, not a percentage: serve-check. After an
# intentional perf change, refresh the baselines with `make bench-decode
# bench-ingest` and commit BENCH_decode.json / BENCH_ingest.json. Live append
# speed is gated here by BenchmarkLiveAppend (the producer alone); with a
# tailer beside it, it is the end-to-end benchmark's live_tail workload
# (bench-e2e).
BENCH_MAX_REGRESS ?= 15
bench-check:
	$(GO) test -run '^$$' -bench 'StreamDecode|XTCDecode|SubsetLoad|FullLoad|FabricPlayback' -benchmem . \
		| $(GO) run ./cmd/benchjson > bench-new.json
	$(GO) test -run '^$$' -bench 'XTCEncode|SubsetWrite|IngestParallel|LiveAppend' -benchmem . \
		| $(GO) run ./cmd/benchjson > bench-ingest-new.json
	$(GO) run ./cmd/benchjson -compare BENCH_decode.json bench-new.json \
		-max-regress $(BENCH_MAX_REGRESS) \
		> bench-delta.txt; decode=$$?; cat bench-delta.txt; \
	$(GO) run ./cmd/benchjson -compare BENCH_ingest.json bench-ingest-new.json \
		-max-regress $(BENCH_MAX_REGRESS) \
		> bench-ingest-delta.txt; ingest=$$?; cat bench-ingest-delta.txt; \
	exit $$((decode + ingest))

# End-to-end benchmark over a 3-node R=2 loopback cluster (benchmarks/,
# the command BENCHMARK.json names): bench-e2e is one run of every workload;
# bench-e2e-compare is ten runs written as a set and compared, metric by
# metric against its bound, with the committed baseline (read, never
# written — re-record it only in a change that touches nothing else).
bench-e2e:
	bash benchmarks/run.sh --workload all --seed 42

bench-e2e-compare:
	bash benchmarks/run.sh --workload all --seed 42 --runs 10 --out benchmarks/e2e/out/runs.json
	bash benchmarks/run.sh compare benchmarks/e2e/baseline.json benchmarks/e2e/out/runs.json

# Tiering benchmarks rendered to BENCH_tier.txt for the CI artifact:
# migration-pipeline throughput plus the read-path A/B of a plain store
# against a HeatFS-wrapped one (budget: <2% read tax, asserted structurally
# by TestHeatHookReadTax).
bench-tier:
	$(GO) test -count=1 -run 'HeatHookReadTax' -v \
		-bench 'MigrationThroughput|ReadNoHeatFS|ReadWithHeatFS' -benchmem \
		./internal/tier/ > BENCH_tier.txt
	cat BENCH_tier.txt

clean:
	$(GO) clean ./...
