# Reproduction of Greenberg & Bhatt, "Routing Multiple Paths in
# Hypercubes" (SPAA 1990). Stdlib-only; all targets work offline.

GO ?= go

.PHONY: all check fmt build vet staticcheck test-patterns test test-short race bench experiments examples fuzz-short cover clean

all: check

# The default verification path: gofmt, build, vet, staticcheck (when
# installed), tests, and the race detector (the netsim batch runner,
# the mpbench worker pool, and the core arena builders' per-worker
# fan-out are concurrent, so -race is part of the gate, not an extra;
# the core package's parallel-build tests force multiple workers
# regardless of host core count). Under -race the root package's
# large-scale tests run at smaller sizes (slow_test.go's largeN).
check: fmt build vet staticcheck test-patterns test race

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when the binary is on PATH
# (CI installs it), skip quietly when it is not — the offline gate
# must not require network access to fetch it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Fails when a test pattern a gate relies on matches nothing: go test
# exits 0 both for a -fuzz pattern that names no fuzz test ("no fuzz
# tests to fuzz") and for a -run pattern that matches no test. Every
# -fuzz= target in fuzz-short must match exactly one fuzz test of its
# package, and the CI race step's -run pattern must match at least one
# test in each package it lists.
test-patterns:
	@$(MAKE) -s -n fuzz-short | while read -r line; do \
		fuzz=$$(echo "$$line" | sed -n 's/.*-fuzz=\([^ ]*\).*/\1/p'); pkg=$${line##* }; \
		n=$$($(GO) test -list "$$fuzz" $$pkg | grep -c '^Fuzz'); \
		if [ "$$n" != 1 ]; then echo "fuzz-short: -fuzz=$$fuzz matches $$n fuzz tests in $$pkg, want 1"; exit 1; fi; \
	done
	@step=$$(grep -e "go test -race -run '" .github/workflows/ci.yml); \
	run=$$(echo "$$step" | sed -n "s/.*-run '\([^']*\)'.*/\1/p"); \
	pkgs=$$(echo "$$step" | sed -n "s/.*-run '[^']*' //p"); \
	if [ -z "$$run" ] || [ -z "$$pkgs" ]; then echo "ci.yml: race step -run pattern not found"; exit 1; fi; \
	for pkg in $$pkgs; do \
		n=$$($(GO) test -list "$$run" $$pkg | grep -cE '^(Test|Fuzz|Example)'); \
		if [ "$$n" = 0 ]; then echo "ci.yml race step: -run '$$run' matches no test in $$pkg"; exit 1; fi; \
	done

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Go benchmarks, then a full mpbench run to refresh all five perf
# records (BENCH_netsim.json, BENCH_construct.json, BENCH_faults.json,
# BENCH_obsv.json, BENCH_traffic.json).
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/mpbench > /dev/null

# Short coverage-guided fuzz smoke: every fuzz target for a bounded
# wall-clock slice (go test -fuzz takes exactly one target per run).
# CI runs this on top of the checked-in regression corpora that plain
# `go test` already replays.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzScheduleInvariants -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzPerStepDeterminism -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzSimulate$$ -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateFaults -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateProbed -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzSimulateOpenLoop$$ -fuzztime=$(FUZZTIME) ./internal/netsim
	$(GO) test -run=^$$ -fuzz=FuzzGrayRoundTrip -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run=^$$ -fuzz=FuzzMomentFlip -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run=^$$ -fuzz=FuzzPrefixConsistency -fuzztime=$(FUZZTIME) ./internal/bitutil
	$(GO) test -run=^$$ -fuzz=FuzzDisperseReconstruct -fuzztime=$(FUZZTIME) ./internal/ida
	$(GO) test -run=^$$ -fuzz=FuzzGFInverse -fuzztime=$(FUZZTIME) ./internal/ida
	$(GO) test -run=^$$ -fuzz=FuzzArenaRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSelfHealOpenLoop -fuzztime=$(FUZZTIME) ./internal/selfheal
	$(GO) test -run=^$$ -fuzz=FuzzStrategyRoutes -fuzztime=$(FUZZTIME) ./internal/routing

# Regenerate the paper-vs-measured tables (EXPERIMENTS.md content).
experiments:
	$(GO) run ./cmd/mpbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gridrelax
	$(GO) run ./examples/faultpaths
	$(GO) run ./examples/wormhole
	$(GO) run ./examples/broadcast
	$(GO) run ./examples/bitonic

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
