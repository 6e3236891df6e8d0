# Developer entry points.  `make verify` is the gate to run before sending
# a change: formatting, vet, and the full test suite under the race
# detector (the simulation kernel is single-threaded by design, so -race is
# cheap and catches accidental goroutine use).

GO ?= go

.PHONY: all build test race verify allocs hostbench bench bench-diff bench-explain bench-trend fmt vet lint observe cover explore

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: load-bearing now that internal/runner fans simulations
# across goroutines (cmd/experiments -jobs, protocheck -audit -jobs, the
# audited fuzz sweep, and the jobs=1-vs-8 determinism tests all run
# concurrent platforms).
race:
	$(GO) test -race ./...

verify: fmt vet race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Alloc-regression suite: AllocsPerRun pins of the zero-garbage hot path
# (bus tick, ARTRY storm, snoop broadcast, event emit, metrics records,
# event-scheduler wake structure, sharing collector, span collector, stall
# ledger, lock steppers, the full text-trace ring in TestAllocsTrace, the
# invariant auditor's per-record checks).  Any nonzero allocs/op in steady
# state fails.  TestAllocsBuild bounds the set-up side: one hetcc.Build of a
# PF2 platform with its programs.
allocs:
	$(GO) test -run TestAllocs -v . ./internal/bus ./internal/event ./internal/metrics ./internal/lock ./internal/profile ./internal/span ./internal/sharing ./internal/sim ./internal/trace ./internal/audit

# Host-time benchmark (hostbench/, a module of its own, so `go test ./...`
# does not reach it): its unit tests, then an untraced run of every workload
# at hostbench's default length.  A run exits non-zero when any operation
# fails its reference check, or when it measured too few samples for its
# quantiles.
hostbench:
	cd hostbench && $(GO) test .
	@for w in figure-sweep contention-slow-memory observed-matrix explore-census; do \
		echo "hostbench: $$w"; \
		bash hostbench/run.sh --workload $$w --trace 0 || exit 1; \
	done

# Simulated-cycle benchmark suite (cmd/bench): 27 deterministic runs whose
# cycle counts are machine-independent.  `make bench` refreshes BENCH_dev.json;
# `make bench-diff` gates it against the committed baseline (exit 1 on any
# >10% cycle regression), as CI does.
bench:
	$(GO) run ./cmd/bench -o BENCH_dev.json

bench-diff: bench
	$(GO) run ./cmd/bench diff BENCH_seed.json BENCH_dev.json

# Causal triage of a bench regression: per-cause delta tables for every run
# beyond threshold, plus the machine-readable bench-delta.json artifact CI
# uploads on failure.
bench-explain: bench
	$(GO) run ./cmd/bench diff -explain -json bench-delta.json BENCH_seed.json BENCH_dev.json

# Performance trajectory across every committed BENCH_*.json (seed first):
# total cycles, per-solution totals, bus utilisation.
bench-trend:
	$(GO) run ./cmd/bench trend

# Statement-coverage gate for the proof-bearing packages: the reduction rules
# (internal/core), the TAG-CAM snoop logic (internal/snooplogic) and the
# explorer that proves them (internal/explore) must each stay at or above
# 90% statement coverage.  Writes cover.out (full-repo profile) for the CI
# artifact.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) test -cover ./internal/core ./internal/snooplogic ./internal/explore | tee cover-floor.txt
	@awk '/coverage:/ { pct=$$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
			if (pct+0 < 90) { printf "cover: %s %.1f%% below floor 90%%\n", $$2, pct; bad=1 } } \
		END { exit bad }' cover-floor.txt
	@rm -f cover-floor.txt
	@echo "coverage floor holds (core, snooplogic, explore >= 90%)"

# Exhaustive reachability proof of the reduction table: every 2-master
# protocol multiset, wrapped (must be violation-free) and un-wired (must
# exhibit the defects the wrappers remove).  Exit non-zero on any breach,
# frontier overflow, or blown budget.
explore:
	$(GO) run ./cmd/protocheck -explore

# Static analysis beyond go vet.  Runs staticcheck when it is on PATH and
# is a no-op otherwise, so the target works in minimal containers; CI
# installs the pinned version and always runs it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# One-stop observability bundle: report + events + audit + chrome trace +
# stall profile + span JSONL + sharing-pattern JSONL + critical-path
# explanation in ./observe/.
observe:
	$(GO) run ./cmd/hetccsim -scenario wcs -solution proposed -observe observe -explain
