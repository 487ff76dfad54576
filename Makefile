# Reproduction of "Concurrency Control and Recovery in Transactional
# Process Management" (Schuldt, Alonso, Schek — PODS 1999).

GO ?= go

.PHONY: build test test-short race diff torture chaos fed serve coverage-floor bench bench-check bench-recovery bench-fed bench-serve fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The differential battery: >= 50 seeded workloads through both the
# sequential engine and the concurrent runtime under the race detector.
diff:
	GOMAXPROCS=4 $(GO) test -race -run 'TestDifferential' ./internal/runtime -v

# The crash-torture battery: 200 deterministic crash/recover scenarios
# under the race detector — as seeded, with fuzzy checkpointing and
# compaction forced onto every scenario, and with file-backed durable
# subsystem stores forced onto every scenario. Reproduce one failure
# with `go test ./internal/fault -run TortureBattery -torture.seed=N
# [-torture.ckpt] [-torture.durable] -v`.
torture:
	$(GO) test -race -v ./internal/fault -run TestTortureBattery -torture.count=200
	$(GO) test -race -v ./internal/fault -run TestTortureBattery -torture.count=200 -torture.ckpt
	$(GO) test -race -v ./internal/fault -run TestTortureBattery -torture.count=200 -torture.durable
	$(GO) test -race -run TestRuntimeKillRecover ./internal/runtime
	$(GO) test -race -run TestCheckpointConcurrentWithAppends ./internal/runtime

# The chaos battery: 200 deterministic unreliable-subsystem scenarios
# (flaky transport, retries, breakers, ◁ failover) under the race
# detector. Reproduce one failure with
# `go test ./internal/chaos -run TestChaosBattery -chaos.seed=N -v`.
chaos:
	GOMAXPROCS=4 $(GO) test -race -v ./internal/chaos -run TestChaosBattery -chaos.count=200

# The federation batteries: the cross-node differential battery (60
# seeded workloads partitioned over 2–4 scheduler nodes vs the
# single-node sequential oracle) and the 200-scenario federation
# torture battery (node kills mid-2PC, partition windows during
# cross-node resolution, crash + re-join) under the race detector.
# Reproduce one failure with
# `go test ./internal/federation -run FedTortureBattery -fed.seed=N -v`.
fed:
	GOMAXPROCS=4 $(GO) test -race -run 'TestFedDifferential' -v ./internal/federation
	GOMAXPROCS=4 $(GO) test -race -v ./internal/federation -run TestFedTortureBattery -fed.count=200

# The serve crash battery: 200 deterministic ingestion-service
# scenarios (crash between WAL ack and HTTP ack, kill -9 mid-drain,
# double crashes, overload shedding, budget exhaustion) against the
# real HTTP server, under the race detector. Reproduce one failure
# with `tpsim serve -torture -seed=N`.
serve:
	GOMAXPROCS=4 $(GO) test -race -v ./internal/serve
	$(GO) run -race ./cmd/tpsim serve -torture -seeds 200

# Coverage floor for the recovery-critical packages.
coverage-floor:
	scripts/coverage-floor.sh 75

# Regenerate the committed throughput baseline.
bench:
	scripts/bench-json.sh 5x > BENCH_runtime.json
	@cat BENCH_runtime.json

# Vet and test the benchmark module (perfbench/, a nested module that
# ./... does not reach) against this checkout, so an internal API
# change cannot break the benchmark unnoticed. Nothing is downloaded.
bench-check:
	cd perfbench && GOPROXY=off GOFLAGS=-mod=mod $(GO) vet ./... && GOPROXY=off GOFLAGS=-mod=mod $(GO) test ./...

# Regenerate the committed recovery-time-vs-log-length baseline.
bench-recovery:
	scripts/bench-recovery.sh > BENCH_recovery.json
	@cat BENCH_recovery.json

# Regenerate the committed federation node-count throughput sweep.
bench-fed:
	$(GO) run ./cmd/tpsim fed -bench -json > BENCH_fed.json
	@cat BENCH_fed.json

# Regenerate the committed ingestion-service saturation sweep.
bench-serve:
	$(GO) run ./cmd/tpsim serve -bench -json > BENCH_serve.json
	@cat BENCH_serve.json

# Short native-fuzzing smoke (CI runs 30s per target).
fuzz-smoke:
	$(GO) test -fuzz FuzzProcessValidate -fuzztime 30s ./internal/process
	$(GO) test -fuzz FuzzScheduleReduce -fuzztime 30s ./internal/schedule
	$(GO) test -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal
	$(GO) test -fuzz FuzzCheckpointDecode -fuzztime 30s ./internal/wal
	$(GO) test -fuzz FuzzHeapPageDecode -fuzztime 30s -run '^$$' ./internal/store
	$(GO) test -fuzz FuzzFreeSpaceMap -fuzztime 30s -run '^$$' ./internal/store
	$(GO) test -fuzz FuzzWireDecode -fuzztime 30s -run '^$$' ./internal/federation

ci: build test bench-check race diff torture chaos fed serve coverage-floor
