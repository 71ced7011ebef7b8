# Development entry points. `make check` is the CI gate: build, vet, the
# full test suite, the same suite under the race detector — the scenario
# runner is the repo's first production concurrency, so every change runs
# race-clean before it lands — and a one-iteration benchmark smoke so the
# bench bodies compile and run on every verify. Byte-identity of the
# committed results/ tree is its own gate, `make verify-results`: it is
# minutes of simulation, so it runs on demand (always after touching
# anything on the simulation path) rather than inside `make check`.

GO ?= go

.PHONY: build test vet lint race check bench determinism verify-results figures metrics-smoke serve-smoke service-smoke net-smoke diffusion-smoke obs-smoke

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

check: build lint test race bench serve-smoke service-smoke net-smoke diffusion-smoke obs-smoke determinism

# Benchmark smoke: every benchmark runs exactly one iteration. Catches
# bench bodies that rot (they only compile under -bench) without paying
# full measurement time; measured numbers come from the bench/ module
# (`bash bench/run.sh`, see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Sharded-scheduler determinism gate, named so `make check` runs it even
# when the cached `race` target is skipped: the same scenario at shards
# {1,2,4,8} x GOMAXPROCS {1,4} under the race detector must produce an
# identical Result, metric snapshot and trace hash, and the classic
# -shards 1 path must stay allocation-free in steady state. The alloc
# gate runs without -race (instrumentation perturbs allocation counts);
# -count=1 defeats the test cache so the gates always execute.
determinism:
	$(GO) test -race -count=1 -run 'TestShardedDeterminism|TestDiffusionShardedDeterminism|TestShardsAutoResolve' ./internal/experiment
	$(GO) test -count=1 -run TestClassicScenarioSteadyStateAllocFree ./internal/experiment

# Metrics smoke: one small Wave2D scenario with the Prometheus export on
# stderr, asserting the acceptance-critical series are present and
# non-empty. Catches wiring rot (a renamed series, a dropped collector)
# in seconds without simulating the full figure set.
metrics-smoke:
	@out=$$($(GO) run ./cmd/lbsim -app wave2d -cores 8 -strategy refine -bg -scale 0.1 -metrics - 2>&1 >/dev/null); \
	if [ -z "$$out" ]; then echo "metrics-smoke: empty -metrics output"; exit 1; fi; \
	for series in charm_pe_background_seconds_total charm_lb_step_migrations \
			charm_lb_migrations_total machine_core_busy_seconds sim_events_total runner_scenarios_total; do \
		echo "$$out" | grep -q "^$$series{" || echo "$$out" | grep -q "^$$series " || { \
			echo "metrics-smoke: series $$series missing from export"; exit 1; }; \
	done; \
	echo "metrics-smoke: export OK ($$(echo "$$out" | grep -c '^[a-z]') samples)"

# Network smoke: one lossy straggler-link scenario with the Prometheus
# export on stderr, asserting the unreliable-network series are present
# and that the seeded lottery actually lost transmissions. Catches wiring
# rot between the -droppct/-straggle/-netseed flags, Scenario.Net and the
# xnet instrumentation in seconds.
net-smoke:
	@out=$$($(GO) run ./cmd/lbsim -app wave2d -cores 8 -strategy refine -bg \
		-droppct 20 -straggle 1:4 -netseed 7 -scale 0.1 -metrics - 2>&1 >/dev/null); \
	if [ -z "$$out" ]; then echo "net-smoke: empty -metrics output"; exit 1; fi; \
	for series in xnet_drops_total xnet_retransmits_total xnet_link_busy_seconds; do \
		echo "$$out" | grep -q "^$$series " || { \
			echo "net-smoke: series $$series missing from export"; exit 1; }; \
	done; \
	drops=$$(echo "$$out" | sed -n 's/^xnet_drops_total //p'); \
	case "$$drops" in ''|0) echo "net-smoke: no drops at -droppct 20 (got '$$drops')"; exit 1;; esac; \
	echo "net-smoke: unreliable network OK ($$drops drops)"

# Diffusion smoke: one small Wave2D scenario under the distributed
# diffusion balancer with the Prometheus export on stderr, asserting the
# protocol actually ran (nonzero exchange rounds) and the per-PE
# planning-state gauges are wired. Catches wiring rot between -strategy
# diffusion, the charm protocol driver and its instrumentation in
# seconds, without the full Figure 7 run.
diffusion-smoke:
	@out=$$($(GO) run ./cmd/lbsim -app wave2d -cores 8 -strategy diffusion -bg -scale 0.1 -metrics - 2>&1 >/dev/null); \
	if [ -z "$$out" ]; then echo "diffusion-smoke: empty -metrics output"; exit 1; fi; \
	for series in charm_lb_rounds_total charm_lb_peak_state_bytes charm_lb_migrations_total; do \
		echo "$$out" | grep -q "^$$series{" || { \
			echo "diffusion-smoke: series $$series missing from export"; exit 1; }; \
	done; \
	rounds=$$(echo "$$out" | sed -n 's/^charm_lb_rounds_total{[^}]*} //p'); \
	case "$$rounds" in ''|0) echo "diffusion-smoke: no exchange rounds ran (got '$$rounds')"; exit 1;; esac; \
	echo "diffusion-smoke: distributed protocol OK ($$rounds rounds)"

# Telemetry smoke: boot lbsim with the embedded server on a free port,
# scrape every JSON/Prometheus endpoint while -serve-wait holds the run
# open, and assert the acceptance series/fields answer. Catches wiring
# rot between the flags, the server and the instrumented layers.
serve-smoke:
	@$(GO) build -o /tmp/lbsim-serve-smoke ./cmd/lbsim; \
	log=$$(mktemp); \
	/tmp/lbsim-serve-smoke -app wave2d -cores 8 -strategy refine -bg -scale 0.1 \
		-serve 127.0.0.1:0 -serve-wait 15s >/dev/null 2>"$$log" & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^telemetry: serving on http://\([^/]*\)/$$|\1|p' "$$log"); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "serve-smoke: lbsim exited early"; cat "$$log"; rm -f "$$log"; exit 1; }; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "serve-smoke: no serving address in stderr"; cat "$$log"; kill $$pid; rm -f "$$log"; exit 1; }; \
	fail=0; \
	metrics=$$(curl -sf "http://$$addr/metrics") || fail=1; \
	for series in sim_events_total charm_lb_migrations_total machine_core_busy_seconds; do \
		echo "$$metrics" | grep -q "^$$series" || { echo "serve-smoke: /metrics missing $$series"; fail=1; }; \
	done; \
	run=$$(curl -sf "http://$$addr/api/v1/run") || fail=1; \
	echo "$$run" | grep -q '"scenarios_total"' || { echo "serve-smoke: /api/v1/run missing scenarios_total"; fail=1; }; \
	steps=$$(curl -sf "http://$$addr/api/v1/lbsteps") || fail=1; \
	echo "$$steps" | grep -q '"steps"' || { echo "serve-smoke: /api/v1/lbsteps missing steps"; fail=1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/api/run"); \
	[ "$$code" = "308" ] || { echo "serve-smoke: legacy /api/run answered $$code, want 308"; fail=1; }; \
	curl -sf "http://$$addr/" | grep -q '<!DOCTYPE html>' || { echo "serve-smoke: dashboard missing"; fail=1; }; \
	hcode=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz"); \
	[ "$$hcode" = "200" ] || { echo "serve-smoke: /healthz answered $$hcode, want 200"; fail=1; }; \
	rcode=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/readyz"); \
	[ "$$rcode" = "200" ] || { echo "serve-smoke: /readyz answered $$rcode, want 200"; fail=1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -f "$$log"; \
	[ $$fail -eq 0 ] || exit 1; \
	echo "serve-smoke: all endpoints OK on $$addr"

# Scenario-service smoke: boot lbsim as an evaluation server (-serve plus
# -store), submit the same Spec twice through -submit, and assert the
# acceptance contract of the content-addressed cache: the second run says
# "cache hit", lists byte-identical artifact hashes, and adds zero new
# simulation events to the live sim_events_total series. Then a small
# `figures -submit -fig all` must complete: timelines 1 and 3 render
# locally, the eight table figures run as server jobs, and each Figure 4
# panel reuses its Figure 2 panel's evaluate job from the cache.
service-smoke:
	@$(GO) build -o /tmp/lbsim-service-smoke ./cmd/lbsim; \
	$(GO) build -o /tmp/figures-service-smoke ./cmd/figures; \
	log=$$(mktemp); storedir=$$(mktemp -d); \
	/tmp/lbsim-service-smoke -app jacobi2d -cores 4 -scale 0.05 \
		-serve 127.0.0.1:0 -store "$$storedir" -serve-wait 60s >/dev/null 2>"$$log" & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^telemetry: serving on http://\([^/]*\)/$$|\1|p' "$$log"); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "service-smoke: server exited early"; cat "$$log"; rm -rf "$$log" "$$storedir"; exit 1; }; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "service-smoke: no serving address in stderr"; cat "$$log"; kill $$pid; rm -rf "$$log" "$$storedir"; exit 1; }; \
	fail=0; \
	first=$$(/tmp/lbsim-service-smoke -app wave2d -cores 8 -strategy refine -bg -scale 0.05 \
		-submit "http://$$addr") || { echo "service-smoke: first submit failed"; fail=1; }; \
	echo "$$first" | grep -q "(computed, spec" || { echo "service-smoke: first submit was not computed"; fail=1; }; \
	events1=$$(curl -sf "http://$$addr/metrics" | sed -n 's/^sim_events_total //p'); \
	second=$$(/tmp/lbsim-service-smoke -app wave2d -cores 8 -strategy refine -bg -scale 0.05 \
		-submit "http://$$addr") || { echo "service-smoke: second submit failed"; fail=1; }; \
	echo "$$second" | grep -q "(cache hit, spec" || { echo "service-smoke: second submit missed the cache"; fail=1; }; \
	events2=$$(curl -sf "http://$$addr/metrics" | sed -n 's/^sim_events_total //p'); \
	[ -n "$$events1" ] && [ "$$events1" = "$$events2" ] || { \
		echo "service-smoke: cache hit simulated: sim_events_total $$events1 -> $$events2"; fail=1; }; \
	arts1=$$(echo "$$first" | grep '^artifact:'); arts2=$$(echo "$$second" | grep '^artifact:'); \
	[ -n "$$arts1" ] && [ "$$arts1" = "$$arts2" ] || { echo "service-smoke: artifact listings differ between submissions"; fail=1; }; \
	figs=$$(/tmp/figures-service-smoke -fig all -cores 4,8 -seeds 1 -scale 0.05 \
		-submit "http://$$addr" 2>"$$log.figs") || { echo "service-smoke: figures -submit -fig all failed"; cat "$$log.figs"; fail=1; }; \
	echo "$$figs" | grep -q '^Figure 3:' || { echo "service-smoke: figure 3 did not render locally"; fail=1; }; \
	jobs=$$(grep -c '^figures: job ' "$$log.figs"); \
	[ "$$jobs" = "8" ] || { echo "service-smoke: figures -submit ran $$jobs server jobs, want 8"; fail=1; }; \
	[ "$$(grep -c '(cache hit): energy.csv' "$$log.figs")" = "3" ] || { \
		echo "service-smoke: Figure 4 panels did not reuse the Figure 2 evaluate jobs"; fail=1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf "$$log" "$$log.figs" "$$storedir"; \
	[ $$fail -eq 0 ] || exit 1; \
	echo "service-smoke: cached resubmission OK on $$addr ($$(echo "$$arts1" | wc -l) artifacts, $$events1 events); figures -submit -fig all OK ($$jobs jobs)"

# Observability smoke: boot lbsim as an evaluation server with JSON
# logging on, submit a Spec, and assert the tracing contract end to end:
# server stderr carries JSON log lines tagged with the job's trace ID,
# the job exports a well-formed Chrome trace_spans.json artifact with
# the expected spans, /healthz and /readyz answer 200, and resubmitting
# the same Spec logs a cache hit instead of recomputing.
obs-smoke:
	@$(GO) build -o /tmp/lbsim-obs-smoke ./cmd/lbsim; \
	log=$$(mktemp); storedir=$$(mktemp -d); \
	/tmp/lbsim-obs-smoke -app jacobi2d -cores 4 -scale 0.05 \
		-serve 127.0.0.1:0 -store "$$storedir" -log info -serve-wait 60s >/dev/null 2>"$$log" & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^telemetry: serving on http://\([^/]*\)/$$|\1|p' "$$log"); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "obs-smoke: server exited early"; cat "$$log"; rm -rf "$$log" "$$storedir"; exit 1; }; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "obs-smoke: no serving address in stderr"; cat "$$log"; kill $$pid; rm -rf "$$log" "$$storedir"; exit 1; }; \
	fail=0; \
	hcode=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz"); \
	[ "$$hcode" = "200" ] || { echo "obs-smoke: /healthz answered $$hcode, want 200"; fail=1; }; \
	rcode=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/readyz"); \
	[ "$$rcode" = "200" ] || { echo "obs-smoke: /readyz answered $$rcode, want 200"; fail=1; }; \
	first=$$(/tmp/lbsim-obs-smoke -app wave2d -cores 8 -strategy refine -bg -scale 0.05 \
		-submit "http://$$addr") || { echo "obs-smoke: submit failed"; fail=1; }; \
	echo "$$first" | grep -q "(computed, spec" || { echo "obs-smoke: first submit was not computed"; fail=1; }; \
	grep '"trace_id":"job-' "$$log" | head -1 | jq -e '.msg and .trace_id' >/dev/null 2>&1 || { \
		echo "obs-smoke: no JSON log line carrying a job trace ID"; fail=1; }; \
	spanurl=$$(echo "$$first" | sed -n 's/^artifact: *trace_spans\.json *\([^ ]*\).*/\1/p'); \
	[ -n "$$spanurl" ] || { echo "obs-smoke: no trace_spans.json artifact in submit output"; fail=1; }; \
	curl -sf "$$spanurl" | jq -e 'type == "array" and length > 0 and ([.[] | select(.ph == "X" and .name == "execute")] | length) >= 1 and ([.[] | select(.ph == "X" and .name == "cache-lookup")] | length) >= 1 and all(.[]; has("ph"))' >/dev/null || { \
		echo "obs-smoke: trace_spans.json is not a well-formed Chrome span array"; fail=1; }; \
	second=$$(/tmp/lbsim-obs-smoke -app wave2d -cores 8 -strategy refine -bg -scale 0.05 \
		-submit "http://$$addr") || { echo "obs-smoke: second submit failed"; fail=1; }; \
	echo "$$second" | grep -q "(cache hit, spec" || { echo "obs-smoke: second submit missed the cache"; fail=1; }; \
	grep -q '"msg":"cache hit"' "$$log" || { echo "obs-smoke: cache hit was not logged"; fail=1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf "$$log" "$$storedir"; \
	[ $$fail -eq 0 ] || exit 1; \
	echo "obs-smoke: logs, spans and health endpoints OK on $$addr"

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
