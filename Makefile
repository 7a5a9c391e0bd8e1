# Development targets. `make ci` is the full gate a change must pass:
# build, vet, the tier-1 suite at 1/2/8 procs, the portable R*-tree
# walk's tests (-tags purego), bench/'s self-check, every testing.B
# benchmark once, the race-detector run, the acceptance soaks' verbose
# summaries and seed sweeps (see README "Testing") and the fuzz targets.

GO ?= go

.PHONY: build test test-procs test-purego race vet bench bench-layers bench-check bench-e2e bench-abr bench-crowd soaks fuzz ci

build:
	$(GO) build ./...

# -count=1: a cached "ok" must never stand in for a run on this machine.
test:
	$(GO) test -count=1 -shuffle=on ./...

# The serve path's packages (the wire record's encoder in wavelet
# among them), the pager under the paged store (it reads
# a fault with its mutex released), the engine's session table (with
# FuzzSessionLifecycle's concurrent seeds), session journal and scene
# restore, the gateway in front of it and cmd/server's
# boot, again at 1, 2 and 8 procs, and with them the kill-and-fault
# soak (TestRunCrash), whose two runs per spec must print the same
# durability and recovery lines, and the crowd soaks (TestRunCrowd,
# TestRunCrowdNoOverlap), whose hot-cache and coalescer counters must
# reconcile however the sessions interleave: their zero-allocation,
# determinism and accounting gates must give the same verdict whatever
# the core count (for three re-anchors a test that failed only above one
# proc hid behind a single-proc box and the test cache).
test-procs:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/wavelet/ ./internal/rtree/ ./internal/index/ ./internal/hotcache/ ./internal/retrieval/ ./internal/proto/ ./internal/persist/ ./internal/engine/ ./internal/cluster/ ./cmd/gateway/ ./cmd/server/ || exit 1; \
		GOMAXPROCS=$$p $(GO) test -count=1 -run '^(TestRunCrash|TestRunCrowd|TestRunCrowdNoOverlap)$$' ./internal/experiment/ || exit 1; \
	done

# The R*-tree walk and the packages that search through it, built
# without the AVX2 node filter: the portable survivor walk every
# non-amd64 build and every CPU without AVX2 runs stays under test on
# amd64 too.
test-purego:
	$(GO) test -count=1 -tags purego ./internal/rtree/ ./internal/index/ ./internal/retrieval/

# The race gate: the full suite under the race detector, including the
# multi-client soak (internal/proto), many concurrent readers of one
# sharded index (internal/index — a served index holds no lock), and
# readers sharing one insert-built R*-tree (internal/rtree).
race:
	$(GO) test -race ./...

# gofmt -l prints the files it would rewrite: any output fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Every testing.B benchmark in the module, one iteration each (about
# 30-40 s on 2 vCPU): a benchmark that panics or fails its own checks
# fails the target.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The serve path's layer benchmarks, five rounds each, for a layer table
# whose medians and spread a change is compared by (ROADMAP aim 1):
# R*-tree window search, a frame's index search, the retrieval merge,
# the response encode, the client's apply, a paged store's page fault,
# a whole connection trip, and the scene's index build that setup_s
# times (about 3 minutes on 2 vCPU). Informational, like bench-e2e, and
# not part of ci.
bench-layers:
	$(GO) test -run '^$$' -count 5 -bench '^(BenchmarkWindowSearch|BenchmarkFrameSearch|BenchmarkExecuteMerge|BenchmarkEncodeResponse|BenchmarkClientApply|BenchmarkPagedFault|BenchmarkConnectionTrip|BenchmarkNewSharded)$$' \
		./internal/rtree/ ./internal/retrieval/ ./internal/proto/ ./internal/index/

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

# Every acceptance soak (internal/experiment's TestRun* tests) once,
# verbosely, listing each soak's summary. `race` already runs them under
# the race detector with the rest of the suite; README "Testing" lists
# which package tests cover each plane. Then every wire soak at its
# default scale for every -seed 1-50, and the ABR soak (throttled by the
# wall clock, about 2 s a seed) for -seed 1-10, stopping at the first
# seed that fails (about 4 minutes in all on 2 vCPU).
soaks:
	$(GO) test -v -run '^TestRun' ./internal/experiment/
	$(GO) build -o .soak_build/experiments ./cmd/experiments
	for run in crash:50 outofcore:50 crowd:50 cluster:50 abr:10; do \
		mode=$${run%:*}; \
		for seed in $$(seq 1 $${run#*:}); do \
			out=$$(.soak_build/experiments -$$mode -seed $$seed -stats 0 2>&1) || \
				{ echo "$$out"; echo "soaks: -$$mode fails at -seed $$seed"; exit 1; }; \
		done; \
	done
	@echo "soaks: -crash, -outofcore, -crowd and -cluster pass for -seed 1-50, -abr for -seed 1-10"

# Utility-vs-bandwidth sweep: ABR viewport plans against the fixed
# two-state controller under identical per-frame byte allowances; emits
# BENCH_abr.json (monotone utility curve, ABR >= fixed at every level;
# TestABRBenchSmoke gates both).
bench-abr: build
	$(GO) run ./cmd/experiments -bench-abr BENCH_abr.json

# Crowd-scaling sweep: 10^2-10^4 simulated clients at overlap factors 0,
# 0.5, and 0.9, coalesced vs independent execution in deterministic
# lockstep; emits BENCH_crowd.json (index-pass reduction per point,
# >= 3x gate at 10^3 clients / overlap >= 0.8, no-regression gate at
# overlap 0; TestRunCrowdBench gates both).
bench-crowd: build
	$(GO) run ./cmd/experiments -bench-crowd BENCH_crowd.json

# Short coverage-guided exploration of every fuzz target in the module:
# each package's Fuzz* functions, as `go test -list` reports them, for
# 10 s each (go test allows one -fuzz at a time); seeds alone also run
# in `make test`.
fuzz:
	for pkg in $$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for f in $$(echo "$$list" | grep '^Fuzz'); do \
			$(GO) test -fuzz "^$$f\$$" -fuzztime 10s -run '^$$' $$pkg || exit 1; \
		done; \
	done

ci: build vet test test-procs test-purego bench-check bench race soaks fuzz
