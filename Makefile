# Development entry points. `make check` is the CI gate: build, vet, the
# full test suite, the same suite under the race detector — the scenario
# runner is the repo's first production concurrency, so every change runs
# race-clean before it lands — a one-iteration benchmark smoke so the
# bench bodies compile and run on every verify, the shard-count determinism
# gate, and vet plus tests of the separate bench/ module, which builds
# against the internal packages. Every end-to-end contract (flags to
# metrics export, the job service, -submit, the figures) is a `go test`.
# Byte-identity of the committed results/ tree is its own gate,
# `make verify-results`: it is minutes of simulation, so it runs on
# demand (always after touching anything on the simulation path) rather
# than inside `make check`. `make fuzz` runs every `Fuzz*` target for
# FUZZTIME each (default 30s); it explores rather than checks, so it stays
# out of `make check`, whose plain `go test` already replays every seed.
# `make lines BASE=<ref>` counts a change's lines against <ref>, leaving
# out ISSUE.md and CHANGES.md.

GO ?= go
FUZZTIME ?= 30s
BASE ?= HEAD

.PHONY: build test vet lint race check bench bench-module determinism verify-results figures fuzz lines

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

# Fuzzing: `go test -fuzz` takes one target in one package per run, so
# the targets are listed first. A failing input is saved under the
# package's testdata/fuzz/ and replays as a seed from then on. Each new
# interesting input is minimized for at most 5s (go test's default is
# 60s, which can eat a whole FUZZTIME with nothing executing).
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || exit 1; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "fuzz: $$target ($$pkg) for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 5s "$$pkg" || exit 1; \
	done

# Shard-count determinism gate, named so `make check` runs it even when
# the cached `race` target is skipped: the same scenario at shards
# {1,2,4,8} x GOMAXPROCS {1,4}, and seeded random Specs at shards {1,2,4},
# must produce an identical Result, metric snapshot and trace hash under
# the race detector. So must the LB step's resume wave, which runs in
# parallel windows once the step's placements are final: under the flat
# gather, the tree gather and DiffusionLB, with a reduction right after
# the resume, in each AMPI rank's Wtime, and in LBWallTime's per-PE sums; merged mode must keep one
# engine's order, and a lone pool-sharded scenario must run at most a
# fifth of its events merged. Thirty random Specs drawn up to 256 cores run the
# same comparison without -race, which would take minutes on them, at seeds
# 1 to 12: seed 2 draws three Mol3D Specs whose traces split at two and four
# shards when a cross-shard delivery tied a local event's timestamp,
# seed 1 draws a hard kill whose evacuees landed on PEs already in sync,
# which hung the run, seed 6 a restore that lands before a hard kill
# is detected, which left the PE idle with its queue, and seeds 5 and 10
# hard kills whose evacuees synced into an LB step that ended without them,
# which nothing resumed. The revocation grid revokes each PE of a halo ring
# at every 40 ms of its run in four shapes under -race, with the charm
# elastic tests, and at every 5 ms without it. The
# scheduler must stay allocation-free in steady
# state at one shard (the runtime stack alone and under the stencil and
# Mol3D applications) and at 2 and 8 shards, and so must a lossy xnet
# Send on a warm pair. The kernel worker is held to the same
# contract under the race detector: the random Specs with and without it,
# the applications' serial-reference rows that run their steps on it,
# and the charm elastic tests with their sends deferred to it
# (-charm.kernelworker), revocations forcing entries complete mid-tail
# included; the alloc gates hold 0 with it too. The registry's LB-step
# log, which pool workers append to while the telemetry server's HTTP
# goroutines read it, is scraped through a fleet under the race detector
# (TestConcurrentScrape). The alloc gates run without
# -race (instrumentation perturbs allocation counts); -count=1 defeats the
# test cache so the gates always execute.
determinism:
	$(GO) test -race -count=1 -run 'TestShardedDeterminism|TestDiffusionShardedDeterminism|TestShardsAutoResolve|TestShardCountInvariantOnRandomSpecs|TestKernelWorkerInvariantOnRandomSpecs' ./internal/experiment
	$(GO) test -race -count=1 -run 'MatchesSerial|MoversExportedOnce|WithSyncMatchesWithoutSync' ./internal/apps
	$(GO) test -race -count=1 -run 'Revoke|Revocation|HardKill|Restore|Elastic|RecoversFaster|KernelWorker' ./internal/charm -args -charm.kernelworker
	$(GO) test -race -count=1 -run 'TestResumeWaveRunsInParallelWindows' ./internal/charm
	$(GO) test -count=1 -run 'TestRevocationGrid' ./internal/charm -args -revgrid.step=0.005
	$(GO) test -race -count=1 -run 'TestAllReduceAfterMigrateSyncAnyShardCount' ./internal/ampi
	$(GO) test -race -count=1 -run 'TestMergedModeKeepsOneEngineOrder|TestCrossDeliveryKeepsOneEngineOrder' ./internal/sim
	$(GO) test -race -count=1 -run 'TestPoolShardsLoneLargeScenario|TestPoolKernelWorkerLoneScenario' ./internal/runner
	$(GO) test -race -count=1 -run 'TestConcurrentScrape' ./internal/telemetry
	for seed in 1 2 3 4 5 6 7 8 9 10 11 12; do \
		$(GO) test -count=1 -run 'TestShardCountInvariantOnRandomSpecs' ./internal/experiment -args -shardspec.maxcores=256 -shardspec.seed=$$seed -shardspec.cases=30 || exit 1; \
	done
	$(GO) test -count=1 -run 'TestClassicScenarioSteadyStateAllocFree|TestShardedScenarioSteadyStateAllocFree|TestStencilSteadyStateAllocFree|TestMol3DSteadyStateAllocFree' ./internal/experiment
	$(GO) test -count=1 -run 'TestLossySendOnWarmPairAllocFree' ./internal/xnet

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
# the committed files, twice: once on one shard (a single engine) and once
# on eight (-shards 8, one shard per testbed node).
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

# Line count of the working tree against $(BASE): added, removed and net
# lines per kind — non-test Go, test Go, docs (*.md) and the rest — from
# `git diff --numstat`, leaving out ISSUE.md and CHANGES.md. New files
# count once `git add` tracks them; binary files count as zero lines.
lines:
	@git diff --numstat --no-renames $(BASE) -- . ':(exclude)ISSUE.md' ':(exclude)CHANGES.md' | \
	awk '{ k = "rest" } $$3 ~ /_test\.go$$/ { k = "test Go" } $$3 ~ /\.go$$/ && $$3 !~ /_test\.go$$/ { k = "non-test Go" } \
		$$3 ~ /\.md$$/ { k = "docs" } { add[k] += $$1; del[k] += $$2 } \
		END { n = split("non-test Go,test Go,docs,rest", ks, ","); \
			for (i = 1; i <= n; i++) printf "%-12s +%d -%d net %d\n", ks[i], add[ks[i]], del[ks[i]], add[ks[i]] - del[ks[i]] }'
