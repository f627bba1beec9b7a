# Standard developer entry points. `make check` is the gate every
# change must pass; `go run ./tools/ci` runs the same sequence on
# hosts without make.

GO ?= go

.PHONY: check build test race vet fmt bench fuzz paper chaos failover fleet serving serving-trace trace analyze scenarios stress perf

check: ## full gate: gofmt + vet + build + race pass + full tests
	$(GO) run ./tools/ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-bearing packages (parallel sweep executor, event
# engine, the compiler's shared layer-name table) plus the
# fault-injection, deadline/retry, serving-telemetry, and observability
# layers get a dedicated -race pass, over the same list as the race
# gate of tools/ci.
race:
	$(GO) test -race ./internal/runner ./internal/simclock ./internal/parallel ./internal/faults ./internal/serve ./internal/cluster ./internal/trace ./internal/metrics ./internal/analyze ./internal/kvcache ./internal/generate

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/simclock ./internal/gpusim ./internal/parallel ./internal/bench

# The stdlib fuzz targets, 15 s each (plain `go test` runs only their
# seeds): the scenario loader, the paged KV allocator against a naive
# model, the calendar queue against the reference heap, and iteration
# replay against the simulation. A replay input runs whole serving
# simulations, so its minimization is capped at 10 runs per input.
fuzz:
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime 15s -parallel 1 ./internal/scenario
	$(GO) test -run XXX -fuzz FuzzPagedOps -fuzztime 15s -parallel 1 ./internal/kvcache
	$(GO) test -run XXX -fuzz FuzzEngineVsRefheap -fuzztime 15s -parallel 1 ./internal/simclock
	$(GO) test -run XXX -fuzz FuzzContinuousReplay -fuzztime 15s -fuzzminimizetime 10x -parallel 1 ./internal/runtimes

# Full-fidelity paper reproduction: rerun every experiment that
# results_full.txt holds (table1 through straggler) at -batches 200 and
# byte-compare the output with the file, timing lines stripped. The
# same gate ends `make check`.
paper:
	$(GO) test ./internal/bench -run '^TestPaperFull$$' -count=1 -full

# Full-fidelity chaos sweep: every fault scenario x runtime under the
# deadline/retry policy (seeded, byte-reproducible); regenerates
# BENCH_robustness.json at the repo root. See docs/FAULTS.md.
chaos:
	$(GO) run ./cmd/ligerbench -exp chaos -json .

# Full-fidelity elastic-failover sweep: fail each device at several
# instants x runtime; regenerates BENCH_failover.json at the repo root.
failover:
	$(GO) run ./cmd/ligerbench -exp failover -json .

# Full-fidelity fleet-failover sweep: replicas x node-loss instant x
# runtime behind the health-aware router; regenerates BENCH_fleet.json
# at the repo root. See docs/FLEET.md.
fleet:
	$(GO) run ./cmd/ligerbench -exp fleet -json .

# Full-fidelity continuous-serving sweep: arrival rate x decode-pool
# size x runtime with iteration-level batching over the paged KV
# allocator; regenerates BENCH_serving.json and the serving-analysis
# aggregate BENCH_serving_analysis.json at the repo root. See
# docs/SERVING.md.
serving:
	$(GO) run ./cmd/ligerbench -exp serving -json .

# Traced serving demo: one fully traced serving point per runtime —
# iteration lanes, KV-pressure counters, lifecycle instants as Chrome
# traces (open in Perfetto) plus serving metrics snapshots and
# TTFT/TPOT decompositions under ./traces. See docs/OBSERVABILITY.md.
serving-trace:
	$(GO) run ./cmd/ligerbench -exp serving -quick -batches 50 -trace-dir traces

# Traced failover demo: one fully traced failure point per runtime,
# written as Chrome traces (open in Perfetto) plus metrics snapshots
# and trace analyses under ./traces. See docs/OBSERVABILITY.md.
trace:
	$(GO) run ./cmd/ligerbench -exp failover -quick -batches 50 -trace-dir traces

# Trace-analysis demo: critical path, idle-gap attribution, overlap
# efficiency and an annotated timeline for a saturated Liger run.
analyze:
	$(GO) run ./cmd/ligersim -runtime Liger -batches 40 -rate 20 -explain

# Robustness acceptance suite: run every scenario in the corpus and
# fail if any assertion fails. See docs/SCENARIOS.md.
scenarios:
	$(GO) run ./cmd/ligersim run scenarios/*.yaml

# Randomized fleet stress harness: 25 seeded scenario instances across
# all runtimes with an aggregate survival report (reproducible: the
# same -n/-seed always prints identical bytes).
stress:
	$(GO) run ./cmd/ligersim stress -n 25 -seed 42

# End-to-end and per-layer performance benchmark over the four canonical
# workloads (see tools/perf/README.md and BENCHMARK.json). Builds the
# harness into .bench_build/; pass flags with PERFFLAGS, e.g.
# `make perf PERFFLAGS="-workload serve-decode -trace 0"`.
perf:
	bash tools/perf/run.sh $(PERFFLAGS)
