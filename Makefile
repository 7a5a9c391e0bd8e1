# Development targets. `make ci` is the full gate a change must pass:
# build, vet, the tier-1 suite at 1/2/8 procs, bench/'s self-check, the
# race-detector run and the acceptance soaks' verbose summaries (see
# README "Testing"); the bench-abr/bench-crowd artifacts it regenerates
# after them are informational.

GO ?= go

.PHONY: build test test-procs race vet bench bench-check bench-e2e bench-abr bench-crowd benchguard soaks fuzz ci

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

# Every acceptance soak (internal/experiment's TestRun* tests) once,
# verbosely, listing each soak's summary. `race` already runs them under
# the race detector with the rest of the suite; README "Testing" lists
# which package tests cover each plane. Then the fault and crash soaks at
# their default scale for every -fault-seed 1-50 (about 1.5 minutes),
# stopping at the first seed that fails.
soaks:
	$(GO) test -v -run '^TestRun' ./internal/experiment/
	$(GO) build -o .soak_build/experiments ./cmd/experiments
	for mode in fault crash; do \
		for seed in $$(seq 1 50); do \
			out=$$(.soak_build/experiments -$$mode -fault-seed $$seed -stats 0 2>&1) || \
				{ echo "$$out"; echo "soaks: -$$mode fails at -fault-seed $$seed"; exit 1; }; \
		done; \
	done
	@echo "soaks: -fault and -crash pass for -fault-seed 1-50"

# Utility-vs-bandwidth sweep: ABR viewport plans against the fixed
# two-state controller under identical per-frame byte allowances; emits
# BENCH_abr.json (monotone utility curve, ABR >= fixed at every level);
# `make benchguard` diffs it against HEAD.
bench-abr: build
	$(GO) run ./cmd/experiments -bench-abr BENCH_abr.json

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

ci: build vet test test-procs bench-check race soaks fuzz
	# Informational artifact deltas (never fail the gate): regenerate
	# BENCH_abr.json and BENCH_crowd.json, then diff both against HEAD
	# with benchguard.
	-$(MAKE) bench-abr
	-$(MAKE) bench-crowd
	-$(MAKE) benchguard
