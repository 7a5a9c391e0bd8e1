# Development targets. `make ci` is the full gate a change must pass:
# build, vet, the tier-1 suite at 1/2/8 procs, bench/'s self-check, the
# race-detector run and the per-plane acceptance soaks (see README
# "Testing"); the bench-abr/bench-crowd artifacts it regenerates after
# them are informational.

GO ?= go

.PHONY: build test test-procs race vet bench bench-check bench-e2e bench-abr bench-crowd benchguard soak fault crash cluster abr city diskfault crowd fuzz ci

build:
	$(GO) build ./...

# -count=1: a cached "ok" must never stand in for a run on this machine.
test:
	$(GO) test -count=1 -shuffle=on ./...

# The serve path's packages again at 1, 2 and 8 procs: their
# zero-allocation and determinism gates must give the same verdict
# whatever the core count (for three re-anchors a test that failed only
# above one proc hid behind a single-proc box and the test cache).
test-procs:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/rtree/ ./internal/index/ ./internal/retrieval/ ./internal/proto/ || exit 1; \
	done

# The race gate: the full suite under the race detector, including the
# multi-client soak (internal/proto), the sharded-index equivalence and
# reader-vs-writer churn tests (internal/index — Sharded is the one
# mutable serving index), and the snapshot hand-over between concurrent
# readers (internal/rtree).
race:
	$(GO) test -race ./...

# gofmt -l prints the files it would rewrite: any output fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench/ is a module of its own, so `build`, `vet` and `test` above never
# compile it and an internal/* signature change can break the end-to-end
# benchmark unnoticed. This vets it and runs its self-tests (about 2 s)
# against the working tree.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The end-to-end benchmark BENCHMARK.json declares: all four workloads
# over loopback TCP, untraced then traced, with its mechanism checks
# (see bench/README.md; about 7 minutes). Informational, like the other
# bench-* targets.
bench-e2e:
	bash bench/run.sh

# Just the concurrency-focused tests, verbosely.
soak:
	$(GO) test -race -v -run 'TestMultiClientSoak|TestConcurrent|TestShardedConcurrentChurn|TestBulkLoadedTreeSurvivesChurn' ./internal/proto/ ./internal/index/ ./internal/retrieval/ ./internal/rtree/

# The fault-tolerance gate, verbosely: deterministic fault-recovery
# convergence, resume rollback, server shedding/draining, degraded mode,
# and the faultnet link model itself — all under the race detector.
fault:
	$(GO) test -race -v -run 'TestFaultRecoveryConvergence|TestResume|TestServerSheds|TestIdleTimeout|TestGracefulDrain|TestDegraded' ./internal/proto/
	$(GO) test -race -v ./internal/faultnet/
	$(GO) test -race -run 'TestApplyIdempotent' ./internal/wavelet/
	$(GO) test -race -run 'TestRunFault' ./internal/experiment/

# The crash-safety gate, verbosely, under the race detector: the
# kill-restart acceptance test (server killed mid-tour, restarted from
# checkpoints + session journal, meshes byte-identical to a crash-free
# oracle), the cold-journal regression, and the persist-layer recovery
# unit tests (torn tails, quarantine, failpoints, atomic writes).
crash:
	$(GO) test -race -v -run 'TestRunCrash' ./internal/experiment/
	$(GO) test -race ./internal/persist/
	$(GO) test -race -run 'TestSaveAll|TestLoadAll|TestCheckpointer|TestSessionJournal|TestSceneWithoutDataset' ./internal/engine/

# The cluster gate, verbosely, under the race detector: the
# failover-and-drain acceptance experiment (owning backend killed
# mid-tour, replica boots from its durable state, then a live drain onto
# an empty backend — both clients byte-identical to a single-process
# oracle), the 16-client race soak with a forced drain, and the full
# cluster package (topology tables, control framing, gateway routing).
cluster:
	$(GO) test -race -v -run 'TestRunCluster' ./internal/experiment/
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestResilientAddrRotation' ./internal/proto/

# The bandwidth-adaptation gate, verbosely, under the race detector: the
# throttle-profile soak (resilient client + ABR controller riding an
# oscillating/step/ramp link without a stall, budget stats reconciled
# exactly), the budgeted-protocol equivalence and truncation tests, the
# controller/estimator/planner units, and the throttle profiles.
abr:
	$(GO) test -race -v -run 'TestRunABR' ./internal/experiment/
	$(GO) test -race -run 'TestBudget|TestDegradedFloorDecaysToZero' ./internal/proto/
	$(GO) test -race ./internal/abr/
	$(GO) test -race -run 'TestProfile' ./internal/faultnet/

# Utility-vs-bandwidth sweep: ABR viewport plans against the fixed
# two-state controller under identical per-frame byte allowances; emits
# BENCH_abr.json (monotone utility curve, ABR >= fixed at every level);
# `make benchguard` diffs it against HEAD.
bench-abr: build
	$(GO) run ./cmd/experiments -bench-abr BENCH_abr.json

# The out-of-core gate, verbosely, under the race detector: the city
# acceptance soak (paged store at 1/8 of the payload serving a seeded
# multi-client tour byte-identically to the in-memory oracle, residency
# bounded, pager counters reconciling exactly), the segment/pager unit
# tests, the paged-store equivalence and pin-lifetime tests, and the
# city generator determinism tests.
city:
	$(GO) test -race -v -run 'TestRunCity' ./internal/experiment/
	$(GO) test -race -run 'TestSegment|TestPager' ./internal/persist/
	$(GO) test -race -run 'TestPaged|TestPin|TestCoeffRecord|TestStoreCoeffOutOfRange|TestOpenPaged' ./internal/index/
	$(GO) test -race -run 'TestCity' ./internal/workload/
	$(GO) test -race -run 'TestPinner' ./internal/hotcache/

# The storage-fault gate, verbosely, under the race detector: the
# disk-fault acceptance soak (paged store behind a faulty disk surviving
# a transient-error storm, quarantining exactly the one corrupt page,
# withholding its coefficients, and converging byte-identically once the
# page heals), the concurrent corrupt-vs-healthy isolation regression,
# the faultdisk link model itself, and the pager retry/quarantine/scrub
# unit tests.
diskfault:
	$(GO) test -race -v -run 'TestRunDiskFault' ./internal/experiment/
	$(GO) test -race -run 'TestDiskFaultIsolation' ./internal/proto/
	$(GO) test -race ./internal/faultdisk/
	$(GO) test -race -run 'TestPagerRetries|TestPagerTransient|TestPagerQuarantines|TestPagerScrub|TestSegmentClose|TestSegmentPageOffset' ./internal/persist/
	$(GO) test -race -run 'TestPagedCoeffUnavailable|TestPagedPinIDsRollsBack|TestPinnerFailure' ./internal/index/ ./internal/hotcache/

# The crowd-serving gate, verbosely, under the race detector: the crowd
# acceptance soak (coalesced serving byte-identical to independent
# execution for every session across a forced mid-soak epoch bump, with
# coalescer/subscription/stats counters reconciled exactly), the
# coalescer unit tests, the hot-cache subscription tests, the budgeted
# payload-replay tests, the background-scrub ticker tests, and the crowd
# generator determinism tests.
crowd:
	$(GO) test -race -v -run 'TestRunCrowd' ./internal/experiment/
	$(GO) test -race -run 'TestCoalesc|TestFirstTouch|TestSecondAsk|TestEpochBump|TestConcurrentFirstAsk' ./internal/retrieval/
	$(GO) test -race -run 'TestSubscribe|TestPayloadHitCounter' ./internal/hotcache/
	$(GO) test -race -run 'TestBudgetedFrame|TestBudgetedTruncation' ./internal/proto/
	$(GO) test -race -run 'TestScrubber' ./internal/engine/
	$(GO) test -race -run 'TestCrowd' ./internal/workload/

# Crowd-scaling sweep: 10^2-10^4 simulated clients at overlap factors 0,
# 0.5, and 0.9, coalesced vs independent execution in deterministic
# lockstep; emits BENCH_crowd.json (index-pass reduction per point,
# >= 3x gate at 10^3 clients / overlap >= 0.8, no-regression gate at
# overlap 0); `make benchguard` diffs it against HEAD.
bench-crowd: build
	$(GO) run ./cmd/experiments -bench-crowd BENCH_crowd.json

# Informational artifact guard: diff freshly regenerated BENCH_*.json
# against the versions committed at HEAD and report numeric leaves that
# moved more than the tolerance. Never fails ci (pass -strict manually
# to gate on it).
benchguard:
	$(GO) run ./scripts -tolerance 0.25

# Short coverage-guided exploration of every wire-protocol decoder. Each
# fuzz target needs its own invocation (go test allows one -fuzz at a
# time); seeds alone also run in `make test`.
fuzz:
	$(GO) test -fuzz 'FuzzReader$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzReadResponse$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzReadHello$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzReadResume$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzReadSceneSelect$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzCRCRejectsFlips$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzBudget$$' -fuzztime 10s -run '^$$' ./internal/proto/
	$(GO) test -fuzz 'FuzzScan$$' -fuzztime 10s -run '^$$' ./internal/persist/
	$(GO) test -fuzz 'FuzzSegment$$' -fuzztime 10s -run '^$$' ./internal/persist/
	$(GO) test -fuzz 'FuzzCluster$$' -fuzztime 10s -run '^$$' ./internal/cluster/
	$(GO) test -fuzz 'FuzzFaultDisk$$' -fuzztime 10s -run '^$$' ./internal/faultdisk/

ci: build vet test test-procs bench-check race fault crash cluster abr city diskfault crowd fuzz
	# Informational artifact deltas (never fail the gate): regenerate
	# BENCH_abr.json and BENCH_crowd.json, then diff both against HEAD
	# with benchguard.
	-$(MAKE) bench-abr
	-$(MAKE) bench-crowd
	-$(MAKE) benchguard
