# Development entry points. `make check` is the CI gate: build, vet, the
# full test suite, the same suite under the race detector — the scenario
# runner is the repo's first production concurrency, so every change runs
# race-clean before it lands — a one-iteration benchmark smoke so the
# bench bodies compile and run on every verify, the sharded-determinism
# gate, and vet plus tests of the separate bench/ module, which builds
# against the internal packages. Every end-to-end contract (flags to
# metrics export, the job service, -submit, the figures) is a `go test`.
# Byte-identity of the committed results/ tree is its own gate,
# `make verify-results`: it is minutes of simulation, so it runs on
# demand (always after touching anything on the simulation path) rather
# than inside `make check`.

GO ?= go

.PHONY: build test vet lint race check bench bench-module determinism verify-results figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt is checked, not applied: CI must fail on unformatted files, not
# silently rewrite them. staticcheck runs when installed (the container
# image does not bake it in; installing is a no-network environment
# concern, so its absence downgrades to a notice, never a pass/fail flip
# between machines with different toolboxes).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

race:
	$(GO) test -race ./...

check: build lint test race bench determinism bench-module

# Benchmark smoke: every benchmark runs exactly one iteration. Catches
# bench bodies that rot (they only compile under -bench) without paying
# full measurement time; measured numbers come from the bench/ module
# (`bash bench/run.sh`, see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The bench/ module (its own go.mod) imports the internal packages, so
# an internal API change can break it; vet and test it here rather than
# finding out when the benchmark runs.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Sharded-scheduler determinism gate, named so `make check` runs it even
# when the cached `race` target is skipped: the same scenario at shards
# {1,2,4,8} x GOMAXPROCS {1,4} under the race detector must produce an
# identical Result, metric snapshot and trace hash, and the classic
# -shards 1 path must stay allocation-free in steady state, the runtime
# stack alone and under the stencil and Mol3D applications. The alloc
# gates run without -race (instrumentation perturbs allocation counts);
# -count=1 defeats the test cache so the gates always execute.
determinism:
	$(GO) test -race -count=1 -run 'TestShardedDeterminism|TestDiffusionShardedDeterminism|TestShardsAutoResolve' ./internal/experiment
	$(GO) test -count=1 -run 'TestClassicScenarioSteadyStateAllocFree|TestStencilSteadyStateAllocFree|TestMol3DSteadyStateAllocFree' ./internal/experiment

# Regenerate the committed results/ tree (byte-identical at any -parallel).
# Figures 5 (elasticity) and 6 (network interference) are the cloud
# extensions and stay out of "-fig all" so the paper figures regenerate
# unchanged; each gets its own invocation.
figures:
	$(GO) run ./cmd/figures -fig all -cores 4,8,16,32 -seeds 3 -scale 1.0 \
		-csv results -plots results -parallel 0 > results/figures_full.txt
	$(GO) run ./cmd/figures -fig 5 -seeds 3 -scale 1.0 \
		-csv results -parallel 0 > results/fig5.txt
	$(GO) run ./cmd/figures -fig 6 -seeds 3 -scale 1.0 \
		-csv results -parallel 0 > results/fig6.txt
	$(GO) run ./cmd/figures -fig 7 -scale 1.0 \
		-csv results -parallel 0 > results/fig7.txt

# Regenerate the full results/ tree into a temp dir and diff it against
# the committed files, twice: once on the classic single engine and once
# with the sharded scheduler (-shards 8, one shard per testbed node).
# The committed figures are a byte-exact oracle for the simulation's
# determinism; any divergence — including between shard counts — is a
# regression, not noise. The "wrote <path>" status lines in the .txt
# logs embed the output directory, so the temp path is rewritten to
# "results" before diffing.
verify-results:
	@for shards in 1 8; do \
		tmp=$$(mktemp -d) || exit 1; \
		$(GO) run ./cmd/figures -fig all -cores 4,8,16,32 -seeds 3 -scale 1.0 \
			-shards $$shards -csv "$$tmp" -plots "$$tmp" -parallel 0 > "$$tmp/figures_full.txt" && \
		$(GO) run ./cmd/figures -fig 5 -seeds 3 -scale 1.0 \
			-shards $$shards -csv "$$tmp" -parallel 0 > "$$tmp/fig5.txt" && \
		$(GO) run ./cmd/figures -fig 6 -seeds 3 -scale 1.0 \
			-shards $$shards -csv "$$tmp" -parallel 0 > "$$tmp/fig6.txt" && \
		$(GO) run ./cmd/figures -fig 7 -scale 1.0 \
			-shards $$shards -csv "$$tmp" -parallel 0 > "$$tmp/fig7.txt" && \
		sed -i "s|$$tmp|results|g" "$$tmp/figures_full.txt" "$$tmp/fig5.txt" "$$tmp/fig6.txt" "$$tmp/fig7.txt" && \
		diff -r --exclude=README.md results "$$tmp" && \
		echo "results/ reproduced byte-identical at -shards $$shards" || \
		{ rm -rf "$$tmp"; exit 1; }; \
		rm -rf "$$tmp"; \
	done
