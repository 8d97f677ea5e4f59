# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race trace-race trace-bench bench bench-smoke bench-compare chaos crash overload overload-race obs-smoke route-smoke scenario scenario-full examples experiments fuzz fuzz-codec perfbench-check clean

all: build vet test perfbench-check trace-race chaos crash overload obs-smoke route-smoke fuzz-codec bench-smoke bench-compare scenario

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The tracing subsystem and the packages it instruments, under the race
# detector: the trace hot paths run concurrently in every component.
trace-race:
	$(GO) test -race ./internal/trace/ ./internal/broker/ ./internal/webservice/ \
		./internal/endpoint/ ./internal/engine/ ./internal/sdk/

# Fault-injection suite under the race detector: seeded chaos (connection
# drops, worker kills, publish failures) against the full stack, plus the
# chaos/reconnect/lease/retry unit tests. Fixed seeds make failures
# reproducible (see docs/ROBUSTNESS.md).
chaos:
	$(GO) test -race ./internal/chaos/
	$(GO) test -race -run 'TestChaos|TestReconnecting|TestWatchdog|TestHeartbeats|TestLease|TestPoison|TestWorkerCrash|TestDo' \
		./internal/core/ ./internal/broker/ \
		./internal/webservice/ ./internal/engine/ ./internal/sdk/ \
		./internal/experiments/

# Crash-recovery suite: builds the real gc-webservice binary, runs it with
# -data-dir, SIGKILLs it 3 times in the middle of a task storm, and asserts
# every acknowledged task reaches exactly one terminal state after WAL
# replay (see docs/DURABILITY.md). Gated on GC_CRASH so plain `go test
# ./...` stays fast.
crash:
	GC_CRASH=1 $(GO) test -count=1 -timeout 300s -v -run TestCrashRecovery ./internal/crash/

# Overload-protection suite: seeded tenant floods against the full
# in-process stack. Asserts a noisy tenant at 10x cannot move a well-behaved
# tenant's p99 beyond 2x its solo baseline, every shed carries Retry-After,
# every admitted task reaches exactly one terminal state, and idempotent
# retries replay the original task IDs across a -data-dir restart (see
# docs/ROBUSTNESS.md). Gated on GC_OVERLOAD so plain `go test ./...` stays
# fast; also runs the admission/fairshare/webservice packages under the race
# detector via overload-race.
overload: overload-race
	GC_OVERLOAD=1 $(GO) test -race -count=1 -timeout 300s -v -run TestOverload ./internal/overload/

# The overload-protection hot paths (token buckets, in-flight accounting,
# idempotency stripes, priority queues) under the race detector.
overload-race:
	$(GO) test -race ./internal/scheduler/... ./internal/webservice/... ./internal/broker/... ./internal/statestore/...

# Observability smoke: boots the in-process testbed, scrapes and lints the
# /metrics/fleet federation format, then kills an endpoint under load and
# asserts the staleness and failure-rate SLOs fire on /debug/fleet and
# recover after a restart (see docs/OBSERVABILITY.md).
obs-smoke:
	$(GO) test -race -run TestObsSmoke -v ./internal/core/

# Span creation/collection overhead (the per-task cost of tracing).
trace-bench:
	$(GO) test -bench=. -benchmem ./internal/trace/

# Regenerates every table/figure as testing.B measurements.
bench:
	$(GO) test -bench=. -benchmem ./...

# Routing placement smoke: 1000 simulated endpoints (2% of them 10x slower)
# under the race detector, routed by random vs power-of-two-choices at the
# same offered load. Asserts p2c holds p99 task latency to <= 0.5x random's
# without losing throughput (see docs/PERFORMANCE.md "Load-aware placement").
# Gated on GC_ROUTE so plain `go test ./...` stays fast.
route-smoke:
	GC_ROUTE=1 $(GO) test -race -count=1 -timeout 600s -v -run TestRouteSmoke ./internal/experiments/

# Fast saturation run recording the current task-path numbers (now with the
# route-random/route-p2c placement arms over a 10k-endpoint simulated fleet)
# into BENCH_pr9.json — see docs/PERFORMANCE.md for how to read it.
bench-smoke:
	$(GO) run ./cmd/gc-bench -exp saturation -n 3000 -fleet 10000 -json BENCH_pr9.json

# Regression gate: diff the fresh run against the recorded PR-8 baseline and
# fail on a >10% tasks/s drop (or p50/p99 rise) in any arm present in both,
# a >10% drop in the dedup-reduction headline ratio, or a route-p2c p99
# improvement below its 2x floor.
bench-compare:
	$(GO) run ./cmd/gc-bench -compare BENCH_pr8.json,BENCH_pr9.json

# Scenario harness: builds the real gc-webservice (with -pprof), stands up a
# 16-endpoint simulated fleet behind a p2c routing group, and drives the
# built-in steady + burst profiles through the loadgen/sampler/gate pipeline
# (see docs/SCENARIOS.md). Passes only when every run-validity gate holds,
# the burst backlog p95 recovers within its window, and burst-peak pprof
# captures land on disk. Records both summaries in SCENARIO_pr10.json; run
# outputs (samples.csv, summary.json, *.pb.gz) land under scenario-runs/.
# Gated on GC_SCENARIO so plain `go test ./...` stays fast.
scenario:
	GC_SCENARIO=1 GC_SCENARIO_OUT=$(CURDIR)/SCENARIO_pr10.json \
		$(GO) test -count=1 -timeout 300s -v -run TestScenarioHarness ./internal/scenario/

# Long-form soak: the multi-minute steady-full + burst-full profiles
# (repeated bursts, every recovery gated). Not part of `make all`.
scenario-full:
	GC_SCENARIO=1 GC_SCENARIO_FULL=1 GC_SCENARIO_OUT=$(CURDIR)/SCENARIO_full.json \
		$(GO) test -count=1 -timeout 900s -v -run TestScenarioHarness ./internal/scenario/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shellmpi
	$(GO) run ./examples/multiuser
	$(GO) run ./examples/proxystore
	$(GO) run ./examples/realtime

# Prints every paper experiment as a report (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/gc-bench -exp all

fuzz:
	$(GO) test -fuzz FuzzFrameReader -fuzztime 30s ./internal/protocol/
	$(GO) test -fuzz FuzzRender -fuzztime 30s ./internal/template/
	$(GO) test -fuzz FuzzParseRules -fuzztime 30s ./internal/idmap/

# Short codec fuzz pass run as part of `make all`: binary codec vs the JSON
# reference semantics of Envelope, and binary-decode hardening (see
# docs/PROTOCOL.md "Framing").
fuzz-codec:
	$(GO) test -fuzz FuzzCodecEquivalence -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzBinaryDecode -fuzztime 10s ./internal/protocol/

# The end-to-end benchmark (perfbench/, its own Go module built against this
# tree) vetted and unit-tested with perfbench/run.sh's offline module
# settings, so a broker or SDK API change that would break the benchmark
# fails here rather than when the benchmark runs.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && \
		GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

clean:
	$(GO) clean ./...
