GO ?= go

# 10s per fuzz target in CI and `make ci`; raise locally for deeper runs.
FUZZTIME ?= 10s

.PHONY: test test-nosimd bench fuzz build ci fuzz-smoke bench-json fmt-check bench-gate bench-compare bench-cpu bench-smoke bench-pairs fleet-diff

# Benchmarks the regression gate watches: the serving steps and the
# microkernels behind them, the GEMM at every per-chip shape of the bench/
# workloads among them (half of which split across the worker pool).
# cmd/benchgate fails on allocs/op only (zero stays zero) and prints ns/op
# for information — one sample on a box that drifts ±15% (bench/README.md)
# is not a timing measurement. This is the only copy of the list: CI's gate
# step runs `make bench-gate`.
GATE_BENCHES ?= BenchmarkEngineDecodeStep,BenchmarkEngineDecodeStepWG,BenchmarkEngineDecodeStepInt8KV,BenchmarkEngineDecodeStepInt8Wire,BenchmarkEngineDecodeStepStreamed,BenchmarkEngineDecodeStepStreamed1D,BenchmarkEngineDecodeStepStreamedInt8Wire,BenchmarkContinuousBatching,BenchmarkDotF32I8/dispatch,BenchmarkAxpyF32I8/dispatch,BenchmarkMatMulMicro/dispatch,BenchmarkMatMulShapes/f32_8x64x8,BenchmarkMatMulShapes/f32_8x32x64,BenchmarkMatMulShapes/f32_8x32x128,BenchmarkMatMulShapes/f32_32x128x32,BenchmarkMatMulShapes/f32_8x256x1024,BenchmarkMatMulShapes/f32_64x256x1024,BenchmarkMatMulShapes/int8_8x64x8,BenchmarkMatMulShapes/int8_8x32x64,BenchmarkMatMulShapes/int8_8x32x128,BenchmarkMatMulShapes/int8_32x128x32,BenchmarkMatMulShapes/int8_8x256x1024,BenchmarkMatMulShapes/int8_64x256x1024,BenchmarkAttendSegmentInt8,BenchmarkAttendSegmentInt8Long,BenchmarkAttendSegmentF32Long,BenchmarkAttendSegmentF32Head8

# Tier-1 verification plus race detection in one command.
test:
	$(GO) vet ./...
	$(GO) test -race ./...

# The same suite with the SIMD kernels disabled: every kernel call runs the
# pure-Go scalar twin, so the kernel-equivalence and engine token-exactness
# assertions exercise the fallback end to end (the job that keeps the
# scalar twin from rotting).
test-nosimd:
	ESTI_NOSIMD=1 $(GO) test ./...

build:
	$(GO) build ./...

# Regenerate every paper artifact benchmark plus the serving baselines.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Hammer the per-slot KV-cache invariants beyond the seeded corpus.
fuzz:
	$(GO) test ./internal/kvcache -run='^$$' -fuzz=FuzzSlotIsolation -fuzztime=30s

# Fail if any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Short fuzz pass over every seeded fuzz target, one `go test -fuzz` run per
# target, as the fuzzer requires. This is the only copy of the list: CI's
# fuzz-smoke job runs this target.
fuzz-smoke:
	$(GO) test ./internal/kvcache  -run='^$$' -fuzz=FuzzSlotIsolation    -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/kvcache  -run='^$$' -fuzz=FuzzInt8AppendView   -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant    -run='^$$' -fuzz=FuzzQuantizeRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant    -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/collective -run='^$$' -fuzz=FuzzInt8WireRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/collective -run='^$$' -fuzz=FuzzStreamRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sampling -run='^$$' -fuzz=FuzzFilterTopKP      -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fleet    -run='^$$' -fuzz=FuzzFaultPlan        -fuzztime=$(FUZZTIME)

# The end-to-end benchmark as a correctness check: three repetitions of each
# BENCHMARK.json workload on both dispatch paths. bench/run.sh exits
# non-zero on any token mismatch or failed request; the timings of so short
# a run mean nothing and are not looked at.
BENCH_SMOKE_WORKLOADS ?= chat_mesh8 longctx_int8kv shared_prefix_mix
bench-smoke:
	@for w in $(BENCH_SMOKE_WORKLOADS); do \
		echo "bench-smoke: $$w"; \
		bash bench/run.sh --workload $$w --reps 3 > /dev/null || exit 1; \
		echo "bench-smoke: $$w, ESTI_NOSIMD=1"; \
		ESTI_NOSIMD=1 bash bench/run.sh --workload $$w --reps 3 > /dev/null || exit 1; \
	done

# Run the benchmarks once and convert the output to the benchstat-
# compatible JSON trajectory artifact CI uploads. No pipe: a benchmark
# failure must fail this target (and CI), not vanish into a tee.
bench-json:
	@$(GO) test -bench=. -benchmem -run='^$$' . > bench_ci.txt || \
		{ cat bench_ci.txt; rm -f bench_ci.txt; exit 1; }
	@cat bench_ci.txt
	$(GO) run ./cmd/benchjson < bench_ci.txt > BENCH_ci.json
	@rm -f bench_ci.txt
	@echo "wrote BENCH_ci.json"

# The allocs/op gate itself: NEW against BASELINE over GATE_BENCHES.
BASELINE ?= BENCH_ci.json
NEW ?= BENCH_local.json
bench-gate:
	$(GO) run ./cmd/benchgate -baseline $(BASELINE) -new $(NEW) -bench '$(GATE_BENCHES)'

# Regression gate: run the benchmarks into a scratch BENCH_local.json and
# compare against the committed BENCH_ci.json baseline, which is left
# untouched — committing a new baseline is a deliberate act (run
# `make bench-json` and commit the result), not a side effect of the gate.
bench-compare:
	@$(GO) test -bench=. -benchmem -run='^$$' . > bench_ci.txt || \
		{ cat bench_ci.txt; rm -f bench_ci.txt; exit 1; }
	@cat bench_ci.txt
	$(GO) run ./cmd/benchjson < bench_ci.txt > BENCH_local.json
	@rm -f bench_ci.txt
	$(MAKE) bench-gate BASELINE=BENCH_ci.json NEW=BENCH_local.json
	@rm -f BENCH_local.json

# A speed claim measured the settled way: PAIRS alternating runs of PARENT's
# bench and the working tree's on WORKLOAD, fresh seeds, every run printed,
# and the claim rule checked on METRIC (cmd/benchpairs). Exits 1 when the
# rule does not hold. PARENT and WORKLOAD have no default: leaving either
# out is an error. LOG=FILE keeps every run's full report.
PAIRS ?= 10
METRIC ?= itl_ms_p50
SEED ?= 1
bench-pairs:
	$(GO) run ./cmd/benchpairs -parent=$(PARENT) -workload=$(WORKLOAD) -pairs $(PAIRS) -metric $(METRIC) -seed $(SEED) $(if $(LOG),-log $(LOG))

# Same-behaviour check for a fleet or scheduler refactor: export PARENT with
# `git archive` into .bench_build/fleet-<commit>/, run every command below
# in that tree and in the working tree, and compare each pair of outputs
# byte for byte. Every run is seeded, so any difference is a behaviour
# change. Exits 1 at the first difference. The commands are CI's fleet-sim
# estiserve lines, the prefix-cache and continuous-batching replays, an
# unequal-tier static pipeline replay, and the three fleet examples.
FLEET_DIFF_CMDS = \
	"./cmd/estiserve -model palm540b -replicas 4 -requests 200" \
	"./cmd/estiserve -model palm540b -replicas 4 -disaggregated -requests 200" \
	"./cmd/estiserve -model palm540b -replicas 4 -requests 200 -fault-plan crash:1@2+4,slow:0@1-3x2.5" \
	"./cmd/estiserve -model palm540b -replicas 4 -disaggregated -requests 200 -fault-plan link:1-2,drain:0@3" \
	"./cmd/estiserve -model palm540b -replicas 4 -autoscale -requests 200 -load 1.2 -fault-plan crash:1@2+4" \
	"./cmd/estiserve -model palm540b -replicas 4 -disaggregated -autoscale -requests 200 -load 1.2 -fault-plan crash:3@1" \
	"./cmd/estiserve -model palm540b -prefix-cache -prefill-chunk 256 -requests 200" \
	"./cmd/estiserve -model palm540b -continuous -requests 200" \
	"./cmd/estiserve -model palm540b -prefill-chips 32 -decode-chips 64 -decode-batch 128 -requests 200" \
	"./examples/fleet" \
	"./examples/faults" \
	"./examples/autoscale"
fleet-diff:
	@test -n "$(PARENT)" || { echo "fleet-diff: PARENT=<rev> is required"; exit 2; }
	@set -e; \
	commit=$$(git rev-parse --verify "$(PARENT)^{commit}"); \
	tree=.bench_build/fleet-$$commit; out=.bench_build/fleet-diff; \
	if [ ! -d $$tree ]; then \
		rm -rf $$tree.tmp; mkdir -p $$tree.tmp; \
		git archive --format=tar $$commit | tar -x -C $$tree.tmp; \
		mv $$tree.tmp $$tree; \
	fi; \
	rm -rf $$out; mkdir -p $$out; i=0; \
	for c in $(FLEET_DIFF_CMDS); do \
		i=$$((i+1)); \
		(cd $$tree && $(GO) run $$c) > $$out/$$i.parent; \
		$(GO) run $$c > $$out/$$i.work; \
		if ! cmp -s $$out/$$i.parent $$out/$$i.work; then \
			echo "fleet-diff: '$$c' differs from $(PARENT):"; \
			diff $$out/$$i.parent $$out/$$i.work | head -20; exit 1; \
		fi; \
		echo "fleet-diff: same: $$c"; \
	done

# CPU profile of the decode hot path for `go tool pprof` (see the README
# "Performance" section for the reading guide).
bench-cpu:
	$(GO) test -bench=BenchmarkEngineDecodeStep -run='^$$' -benchtime=2s \
		-cpuprofile=cpu.prof -o esti-bench.test .
	@echo "profile written; inspect with:"
	@echo "  go tool pprof -top cpu.prof"
	@echo "  go tool pprof -http=:8080 cpu.prof"

# Mirror of .github/workflows/ci.yml so contributors can reproduce CI
# locally before pushing: build, vet, gofmt, race tests, fuzz smoke, the
# end-to-end benchmark's token check, bench artifact plus regression gate.
# In place of CI's scalar-fallback job (the whole suite under ESTI_NOSIMD=1,
# `make test-nosimd`) it runs the kernel equivalence tests with dispatch
# pinned to the scalar twins: the raw-assembly tests key on hardware, not
# dispatch (the Exp32Rows sweep over every float32 bit pattern among them,
# behind the `exhaustive` build tag), and the attention walk is held to its
# per-head oracle, and the GEMM tile to the retained row-pass kernels of
# tensor and quant, on the twins as they are on AVX2 by `go test`.
ci: build
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	ESTI_NOSIMD=1 $(GO) test ./internal/simd ./internal/reference ./internal/tensor ./internal/quant -run='Asm|Segment|BitIdentical'
	$(GO) test -tags exhaustive -run TestAsmExp32RowsExhaustive ./internal/simd
	$(MAKE) bench-smoke
	$(MAKE) bench-compare
