GO ?= go

.PHONY: check vet staticcheck build test race race-ring race-serve race-chaos parity opt-parity opt-golden shard-parity bench bench-kernels bench-smoke telemetry-overhead fuzz-smoke e2e-encrypted soak-chaos trend

## check: the full CI gate — vet, staticcheck, build, tests, the race
## detector (including the ring worker-pool hammer), and the
## executor-vs-interpreter parity suite.
check: vet staticcheck build test race race-ring parity

vet:
	$(GO) vet ./...

## staticcheck: honnef.co/go/tools; skipped with a notice when the
## binary is not on PATH (CI installs it, local toolchains may not).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

## race-ring: the ring/zq kernel suites in full under the race detector —
## the worker-pool hammer (concurrent ring ops from many goroutines,
## mirroring heserve's batcher), the limb differential suites and the
## Barrett/Shoup reduction tests. Proves the revived limb-parallel path
## is data-race-free and deterministic.
race-ring:
	$(GO) test -race ./internal/ring/... ./internal/zq/...

## race-serve: the serving layer's concurrency suite (micro-batching,
## backpressure, drain) in full under the race detector.
race-serve:
	$(GO) test -race ./internal/serve/

## race-chaos: the resilience suites in full under the race detector —
## network fault injection, the in-process kill/restart soak (durable
## store + bit-identical recovery), and the key store's concurrent
## register/evict/lookup drills.
race-chaos:
	$(GO) test -race ./internal/chaos/ ./internal/keys/

## soak-chaos: the process-level survival drill — heserve with listener
## fault injection and a durable key store, open-loop hebombard load,
## SIGKILL + restart mid-load, SLO report asserted free of silent drops.
soak-chaos:
	bash scripts/soak_chaos.sh

## parity: the op-graph executor must replay plans bit-identically to
## the legacy interpreter (logits and report rows) at CNN scale. The
## suite covers the optimizer gates too: -opt=off and -opt=exact must
## stay bit-identical, the full pipeline within tolerance with an
## unchanged argmax.
parity:
	$(GO) test -run TestExecutorParity -timeout 20m ./internal/henn/

## opt-parity: just the optimizer oracle — the parity suite plus the
## hoisted-rotation grouping bit-identity fixture the replan pass and
## the canonical singleton lowering rely on.
opt-parity:
	$(GO) test -run 'TestExecutorParity|TestRotateHoistedGrouping' -timeout 20m ./internal/henn/

## opt-golden: the graph-size gate — checked-in post-optimization Stats
## for CNN1/CNN2 on both backends, with the ≥15% engine-call reduction
## floor. Symbolic (no keygen), seconds.
opt-golden:
	$(GO) test -run 'TestOptimizedGraphGolden|TestOptimizeOffPreservesLowering' ./internal/henn/

## shard-parity: the sharding gates — the shard package's unit and
## property suites (manifest split/join, wire round trip), the 1×1-grid
## parity suite proving the sharded path is bit-identical to the
## unsharded pipeline on CNN1/CNN2 (both backends, seq + parallel), and
## the cross-shard rotation/recombine round trip.
shard-parity:
	$(GO) test ./internal/henn/shard/
	$(GO) test -run 'TestShardParityTiny|TestShardParityCNN|TestShardedCrossShardDense|TestShardInputValidation' -timeout 30m ./internal/henn/

## trend: the perf-trend regression gate — load every committed
## BENCH_*.json, print the per-configuration latency trend, and fail
## when the newest run is >15% slower than the best prior run of the
## same (model, backend, logN, chain).
trend:
	$(GO) run ./cmd/hetrend -dir . -out trend-report.md

## bench: executor vs interpreter latency on CNN1 single-image.
bench:
	$(GO) test -run xxx -bench 'InferExecutorCNN1|InferLegacyCNN1' -benchtime 5x -timeout 30m ./internal/henn/

## bench-kernels: ring kernel micro-benchmarks — NTT, pointwise multiply,
## the fused plaintext inner product (MulCoeffsSum, against the
## MulCoeffs+Add chain it replaces), rescale division and cached-scalar
## multiply per limb count, serial vs pool-parallel, with allocation
## counts. The parallel/serial ratio at a given limb count is the
## limb-level speedup; it scales with GOMAXPROCS.
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkKernel' -benchtime 20x -benchmem -timeout 30m ./internal/ring/

## bench-smoke: the serving benchmark (perfbench/) is its own Go module,
## so the root `go test ./...` never compiles it. Vet it and run its
## tiny-model smoke tests, so an internal API change cannot break the
## benchmark unnoticed. Writes nothing under perfbench/.
bench-smoke:
	cd perfbench && $(GO) vet . && $(GO) test .

## telemetry-overhead: per-op executor cost with telemetry off / metrics
## on / metrics+tracing on. The disabled case must stay within noise of
## the pre-telemetry executor (one nil check per op).
telemetry-overhead:
	$(GO) test -run xxx -bench BenchmarkRunEncrypted -benchtime 2s ./internal/henn/exec/

## fuzz-smoke: short native-fuzzing passes over the wire-format readers
## (ciphertext, key-bundle and shard-manifest frames); they must reject
## corrupt input with typed errors, never panic.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadCiphertext -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzReadKeyBundle -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzDecodeManifest -fuzztime 10s ./internal/henn/shard/

## e2e-encrypted: the client-held-key protocol end to end — heserve on
## CNN1, hectl keygen/register/classify, encrypted vs plaintext route
## agreement.
e2e-encrypted:
	bash scripts/e2e_encrypted.sh
