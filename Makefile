GO ?= go

# 10s per fuzz target in CI and `make ci`; raise locally for deeper runs.
FUZZTIME ?= 10s

.PHONY: test test-nosimd bench fuzz build ci fuzz-smoke fmt-check bench-cpu bench-smoke bench-pairs

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
# Their allocation contracts are tier-1 tests beside them (bench_test.go,
# bench_micro_test.go); timing claims go through bench-pairs.
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

# CPU profile of the decode hot path for `go tool pprof` (see the README
# "Performance" section for the reading guide).
bench-cpu:
	$(GO) test -bench=BenchmarkEngineDecodeStep -run='^$$' -benchtime=2s \
		-cpuprofile=cpu.prof -o esti-bench.test .
	@echo "profile written; inspect with:"
	@echo "  go tool pprof -top cpu.prof"
	@echo "  go tool pprof -http=:8080 cpu.prof"

# Mirror of .github/workflows/ci.yml so contributors can reproduce CI
# locally before pushing: build, vet, gofmt, race tests (every command's
# output against its testdata/*.golden among them), the streamed engine,
# concurrent pool splits, the split attention walk and the chip faults
# under race at GOMAXPROCS=4, the mesh, collectives and engine at
# GOMAXPROCS=1 (where every receive that misses takes the yield loop),
# fuzz smoke, the
# end-to-end benchmark's token check, and one iteration of every root
# benchmark, so one that breaks fails here.
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
	GOMAXPROCS=4 $(GO) test -race -run 'Stream|ConcurrentSplits|SplitWalk|ChipPanic|ChipFault' ./internal/mesh ./internal/collective ./internal/tensor ./internal/engine
	GOMAXPROCS=1 $(GO) test ./internal/mesh ./internal/collective ./internal/engine
	$(MAKE) fuzz-smoke
	ESTI_NOSIMD=1 $(GO) test ./internal/simd ./internal/reference ./internal/tensor ./internal/quant -run='Asm|Segment|BitIdentical'
	$(GO) test -tags exhaustive -run TestAsmExp32RowsExhaustive ./internal/simd
	$(MAKE) bench-smoke
	$(GO) test -run='^$$' -bench=. -benchtime=1x .
