GO ?= go

.PHONY: build test race vet fuzz-short bench-json bench-regress bench-sweep obs-smoke soak soak-smoke all

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package exceeds go test's default 10m budget under the
# race detector, so give the suite a wider timeout.
race:
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

# The simulator steps every core on one goroutine, but GOMAXPROCS still
# moves ns/op (GC workers, runtime scheduling), so the bench targets pin it
# to the value every committed snapshot is recorded at.  benchjson parses
# the run's GOMAXPROCS from the benchmark-name suffixes and records it in
# the snapshot; benchregress refuses to gate a run against a baseline
# recorded at a different value.  Override with care
# (`make BENCH_GOMAXPROCS=8 bench-json`) and record a new baseline.
BENCH_GOMAXPROCS ?= 1

# Snapshot the simulator/profiler micro-benchmarks (ns/op, allocs/op,
# derived sim-ops/sec) into BENCH_<date>.json so the perf trajectory is
# tracked across PRs.
bench-json:
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'SimLocalStream|SimCXLStream|SimMultiCoreStream|SimThinkHeavyStream|CaptureSnapshot|PFBuilder|PFEstimator|PFAnalyzer|AnalyzeQueues|EpochLoop' \
		-benchmem -benchtime 200000x . | $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y%m%d).json
	@echo wrote BENCH_$$(date +%Y%m%d).json

# Gate the profiler hot paths against the committed baseline: fail when
# SimCXLStream, CaptureSnapshot, or EpochLoop ns/op regresses more than 20%
# versus the latest BENCH_*.json.  The iteration count must match
# bench-json's, or the differently-amortized warmup skews the comparison;
# the gate takes the fastest of three repetitions to filter scheduler noise.
# The same-run pair benchmarks run apart from those, as nine alternating
# `-count 1` rounds; bench_test.go defines each variant right after its
# base, so within a round the two halves of a pair run back to back
# instead of minutes apart.  benchregress gates a pair on the median of
# its per-round variant/base ratios, which keeps host-speed drift and a
# few noisy rounds out of a tight bound.
# The Flight pairs: the disabled flight recorder is meant to ride along in
# production, so its off-cost (FlightOff vs the recorder-free twin) is
# bounded at 2% — one nil check plus an inlined atomic load per
# completion.  The enabled recorder (FlightOn vs FlightOff) files a packed
# 64-byte record with its stage waterfall through the per-core ring, stage
# aggregates, quantile sketch, and histogram on every completion (the pure
# CXL stream is the worst case: every op completes); 25% bounds it without
# gating on noise.
# The -max ceilings pin the simulator hot loops at 0 allocs/op and bound
# their residual B/op.  The residual bytes at 0 allocs/op are amortized
# one-time buffer growth (observer wheel buckets, pending-list slices)
# divided by b.N — they shrink as -benchtime grows (34 -> 13 B/op from
# 200k to 1M iterations on the CXL stream) and are NOT a steady-state
# leak; the ceilings (~2x measured at 200k) catch a real per-op
# allocation sneaking in, which would add >=16 B/op at these counts.
bench-regress:
	@tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	for round in 1 2 3 4 5 6 7 8 9; do \
		GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'SimCXLStream|SimMultiCoreStream' -benchmem -benchtime 200000x -count 1 . \
			| tee -a "$$tmp"; \
	done; \
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'SimLocalStream|CaptureSnapshot|EpochLoop' -benchmem -benchtime 200000x -count 3 . \
		| tee -a "$$tmp"; \
	$(GO) run ./cmd/benchregress \
		-watch 'BenchmarkSimCXLStream,BenchmarkSimMultiCoreStream,BenchmarkCaptureSnapshot,BenchmarkEpochLoop' \
		-max 'BenchmarkSimLocalStream:allocs/op:0,BenchmarkSimCXLStream:allocs/op:0,BenchmarkSimMultiCoreStream:allocs/op:0,BenchmarkSimLocalStream:B/op:64,BenchmarkSimCXLStream:B/op:64,BenchmarkSimMultiCoreStream:B/op:256' \
		"$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch 'BenchmarkSimCXLStream' \
		-pair-tolerance 0.02 \
		-pairs 'BenchmarkSimCXLStreamFlightOff=BenchmarkSimCXLStream,BenchmarkSimMultiCoreStreamFlightOff=BenchmarkSimMultiCoreStream' \
		"$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch 'BenchmarkSimCXLStream' \
		-pair-tolerance 0.25 \
		-pairs 'BenchmarkSimCXLStreamFlightOn=BenchmarkSimCXLStreamFlightOff' \
		"$$tmp"

# Forked-vs-scratch sweep gate: restoring a warmed checkpoint per config
# point must cost at most half of re-warming from scratch (measured ~27x
# faster; the gate demands >=2x so it never trips on noise).  The
# negative pair tolerance inverts the usual bound into a required
# speedup: Forked ns/op may not exceed 0.5x Scratch ns/op.  -watch '' —
# the sweep benchmarks are deliberately absent from the committed
# baseline (each iteration runs a full 16-point sweep, far too slow for
# bench-json's fixed iteration counts).  5 iterations amortize the
# handful of one-time allocations (pool internals, timer) that would
# otherwise round the forked loop's allocs/op up from zero.
bench-sweep:
	@tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem -benchtime 5x . \
		| tee "$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch '' \
		-pair-tolerance -0.5 \
		-pairs 'BenchmarkSweepForked=BenchmarkSweepScratch' \
		-max 'BenchmarkSweepForked:allocs/op:0' \
		"$$tmp"

# End-to-end check of `pathfinder -serve`: boots the introspection server
# on a random port and requires live /metrics and /status content.
obs-smoke:
	sh scripts/obs_smoke.sh

# Chaos soak: seeded random fault plans (CRC noise, bursts, timeouts,
# throttles, poison, viral containment, surprise removal) against the
# workload matrix under invariant monitors.  Any violation is shrunk to a
# minimal plan and printed with its seed — replay it verbatim with
# `go run ./cmd/pfbench -replay 'seed,plan'`.  Exit is nonzero on findings.
soak:
	$(GO) run ./cmd/pfbench -soak 256 -soak-seed 1

# The CI-sized soak: fewer, shorter cases under the race detector, sized
# to finish well inside a minute.
soak-smoke:
	$(GO) run -race ./cmd/pfbench -soak 12 -soak-cycles 250000 -soak-seed 1

# Short fuzzing pass over the flit decoders and the fault-plan parser:
# each target runs for 10 seconds and must only ever return structured
# errors, never panic.
fuzz-short:
	$(GO) test ./internal/cxl/ -run '^$$' -fuzz FuzzFlitDecode -fuzztime 10s
	$(GO) test ./internal/cxl/ -run '^$$' -fuzz FuzzFlit256Feed -fuzztime 10s
	$(GO) test ./internal/cxl/ -run '^$$' -fuzz FuzzParseFaultPlan -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzCheckpointRoundTrip -fuzztime 10s
