# CI entry points. `make ci` is the full gate: vet, build, race-enabled
# tests (including the serve package's Close/drain and concurrency
# tests), and a one-iteration benchmark smoke run of the
# evaluation-engine, routing-path, and streaming-service comparisons,
# which also refreshes BENCH_eval.json (ns/vector for the interpreter,
# compiled, and wide engines at n ∈ {64, 256, 1024}), BENCH_route.json
# (ns/route for scalar, planned, and planned-parallel routing, the
# perm-planned-parallel vs perm-packed vs perm-packed256 permuter batch
# paths, the benes-planned compiled Beneš replay baseline and its
# benes-packed lane-packed replay, plus ns/pattern for the
# conc-planned-parallel, conc-packed, and conc-packed256 SWAR batch
# concentrator paths, all at n ∈ {64, 256, 1024, 4096}), and
# BENCH_serve.json (ns/request for the streaming service vs the
# planned-parallel batch pipeline at n ∈ {256, 1024, 4096}), and
# BENCH_frontdoor.json (the multi-tenant wire trajectory:
# TestFrontdoorThroughputFloor appends a ci-floor record from the
# 4-tenant × 16-connection verified workload, gated at ≥ 200 reqs/sec;
# `permroute -loadgen` appends loadgen records to the same file).
#
# The bench smoke run also enforces the timing floors, including
# TestPackedSpeedupFloor: the SWAR lane-packed concentrator must hold at
# least 3× the planned-parallel per-pattern throughput on 64-wide
# batches at n=4096 — TestPermPackedSpeedupFloor: the lane-packed
# fused permuter must hold at least 2× planned-parallel per-route
# throughput on the same batch shape — TestBenesPackedSpeedupFloor: the
# packed Beneš replay must hold at least 3× the planned replay's
# per-route throughput on 64-wide batches at n=4096 — and
# TestWidePackedThroughputFloor: 256-lane multi-word groups must match
# or beat 64-lane groups on both the permuter and the concentrator at
# n=256 (no regression from widening) — and TestShardedSpeedupFloor:
# the w-way sharded hierarchical router must hold at least 2× the flat
# planned-parallel per-route throughput on 16-wide batches at n=65536
# (BenchmarkRouteEnginesSharded records the route-sharded columns at
# n ∈ {4096, 16384, 65536}) — and TestFaultCheckerOverheadFloor: the
# default sampled lanewise response checker (1/64) must cost ≤ 5% over
# the unchecked serving baseline at n=1024 (BenchmarkServeFault records
# the check-off / check-1/64 / check-all / recovery columns into
# BENCH_fault.json) — and TestZooSpeedupFloor: the constant-periodic
# zoo engine's packed path must at least match planned-parallel
# per-pattern throughput on 64-wide batches at n=4096
# (BenchmarkZooEngines records the network-zoo engine matrix into
# BENCH_zoo.json). `make bench-packed` / `make bench-permpacked` /
# `make bench-wide` / `make bench-shard` / `make bench-fault` /
# `make bench-frontdoor` / `make bench-zoo` run just those gates plus
# their benchmark columns, with full calibration
# instead of the one-iteration smoke. `make chaos` runs the
# race-enabled fault drill: stuck-at faults wedged into a live service
# under concurrent load, every admitted future must resolve correctly.
# `make lint` greps for engine switches that bypass the planner
# registry and for batch loops that bypass planner.DriveBatch; `make ci`
# runs it between vet and build.
# `make drain-floors` runs the serve drain's floors on one core and on
# two (`-cpu 1,2`): TestServeThroughputFloor (serve ≥ 0.9× the
# planned-parallel batch at n=4096) and TestClosedLoopPacks (a closed
# loop of 128 concentrate submitters keeps ≥ 80% of its requests on the
# packed replay); `make ci` runs it after bench.

GO ?= go

.PHONY: ci vet lint build test race serve-race drain-floors bench bench-packed bench-permpacked bench-wide bench-shard bench-fault bench-frontdoor bench-zoo chaos clean

ci: vet lint build race chaos bench drain-floors

# lint fails if any switch/case over engine identities survives outside
# the registry (internal/planner): engine dispatch must go through
# planner.Lookup / EngineSpec so newly registered engines reach every
# layer. It also fails on any planner.RunBatch or AutoWideLanes call
# outside internal/planner: the planned-vs-packed batch policy lives in
# planner.DriveBatch alone. Test files are exempt (they pin specific
# engines and executors on purpose).
lint:
	@matches=$$(grep -rn --include='*.go' --exclude='*_test.go' \
		-E 'switch [a-zA-Z_.]*[Ee]ngine|case (concentrator|planner)\.(MuxMerger|PrefixAdder|Fish|Ranking)\b' \
		. | grep -v 'internal/planner/' || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint: engine switch outside the planner registry — dispatch through planner.Lookup instead'; \
		exit 1; \
	fi
	@matches=$$(grep -rn --include='*.go' --exclude='*_test.go' \
		-E 'planner\.RunBatch\(|AutoWideLanes\(' \
		. | grep -v 'internal/planner/' || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint: batch executor choice outside the planner — route batches through planner.DriveBatch instead'; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

serve-race:
	$(GO) test -race ./internal/serve ./internal/frontdoor -run . -count=1
	$(GO) test -race -run 'TestRoutingService' -count=1 .

bench:
	$(GO) test -run 'TestWideSpeedupFloor|TestRouteSpeedupFloor|TestServeThroughputFloor|TestPackedSpeedupFloor|TestPermPackedSpeedupFloor|TestBenesPackedSpeedupFloor|TestWidePackedThroughputFloor|TestShardedSpeedupFloor|TestFaultCheckerOverheadFloor|TestFrontdoorThroughputFloor|TestZooSpeedupFloor' -bench 'EvalEngines|RouteEngines|ServeThroughput|ServeFault|ZooEngines' -benchtime 1x .

drain-floors:
	$(GO) test -run 'TestServeThroughputFloor$$' -cpu 1,2 -count=1 .
	$(GO) test -run 'TestClosedLoopPacks$$' -cpu 1,2 -count=1 ./internal/serve

bench-packed:
	$(GO) test -run 'TestPackedSpeedupFloor$$' -bench 'RouteEngines/conc' -count=1 .

bench-permpacked:
	$(GO) test -run 'TestPermPackedSpeedupFloor' -bench 'RouteEngines/(perm|benes)' -count=1 .

bench-wide:
	$(GO) test -run 'TestBenesPackedSpeedupFloor|TestWidePackedThroughputFloor' -bench 'RouteEngines/(perm-packed256|benes|conc-packed256)' -count=1 .

bench-shard:
	$(GO) test -run 'TestShardedSpeedupFloor' -bench 'RouteEnginesSharded' -count=1 .

bench-fault:
	$(GO) test -run 'TestFaultCheckerOverheadFloor' -bench 'ServeFault' -count=1 .

bench-frontdoor:
	$(GO) test -run 'TestFrontdoorThroughputFloor' -bench 'FrontdoorWire' -count=1 .

bench-zoo:
	$(GO) test -run 'TestZooSpeedupFloor' -bench 'ZooEngines' -count=1 .

chaos:
	$(GO) test -race -run 'TestChaosRecovery' -count=1 ./internal/serve
	$(GO) test -race -run 'TestChaosDrill|TestRoutingServiceFaultPublic' -count=1 .

clean:
	$(GO) clean ./...
