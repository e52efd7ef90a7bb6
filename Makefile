GO ?= go
BENCH_JSON ?= BENCH_$(shell date +%Y-%m-%d).json

.PHONY: tier1 vet build test race fuzz-smoke bench bench-compare bench-overlap trace-smoke telemetry-smoke block-smoke scale-smoke

# tier1 is the pre-merge gate: static checks, full build and test suite
# (including the noasm scalar-only configuration of the force kernels),
# the race-detector subset covering the concurrent gravity pipeline
# (8+ ranks, multiple walk workers), the MPI mailbox plus the socket
# transports (the ./internal/mpi conformance matrix runs every transport
# test over unix and tcp at 8 ranks), and the parallel sort, plus the four
# short fuzzes of fuzz-smoke.
tier1: vet build test race fuzz-smoke

# A 10-second fuzz of the fused MSD sort + tree construction (random clouds,
# sizes, and worker counts must produce cells bitwise identical to the
# separate sort-then-build path), a 10-second fuzz of the dispatched
# AVX2 force kernels against the always-compiled scalar reference
# (agreement to 1e-12, relative to the accumulated contribution magnitude),
# a 10-second fuzz of the MaxRungs=0 block-timestep integrator against
# the global-dt leapfrog (bitwise-identical trajectories over random
# Plummer models and step counts), and a 10-second fuzz of the socket
# transport's payload decoder (any kind tag and bytes, LETs included, must
# decode or fail with an error, never panic).
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzSortBuildEquivalence -fuzztime 10s ./internal/octree
	$(GO) test -run XXX -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/grav
	$(GO) test -run XXX -fuzz FuzzBlockEquivalence -fuzztime 10s ./internal/sim
	$(GO) test -run XXX -fuzz FuzzDecodePayload -fuzztime 10s ./internal/mpi

vet:
	$(GO) vet ./...

# The noasm build strips the assembly kernels and pins the scalar reference,
# proving the pure-Go fallback path stays buildable and correct.
build:
	$(GO) build ./...
	$(GO) build -tags noasm ./...

test:
	$(GO) test ./...
	$(GO) test -tags noasm ./internal/grav/...

race:
	$(GO) test -race -count=1 ./internal/sim ./internal/mpi ./internal/psort ./internal/obs ./internal/octree ./internal/par
	$(GO) test -race -tags noasm -count=1 ./internal/grav

# Force-kernel microbenchmarks (scalar per-pair vs scalar batch vs dispatched
# SIMD, ns/inter and Gflop/s under the §VI.A conventions),
# the full 100k-particle tree-walk, the walk's traversal/gather/kernel cost
# split, the tree-pipeline phases (build / properties / groups, serial vs 8
# workers), the fused MSD sort+build against the separate sort-then-build
# path, the MPI transports (ping-pong + 8-rank allgather over chan/unix/tcp),
# and the block-timestep integrator against its finest-rung global-dt
# equivalent (wall-clock per simulated time + energy drift), recorded as a
# JSON baseline so the perf trajectory of successive PRs is measurable
# (BENCH_<date>.json).
# -count=3 gives benchjson three samples per benchmark; compares reduce them
# to medians so one noisy sample cannot fake (or mask) a regression.
bench:
	@{ $(GO) test -run XXX -bench 'BenchmarkKernels' -benchtime 300x -count=3 . ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalk100k' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkWalkGather' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkTreePipeline' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkSortBuildFused' -benchtime 2x -count=3 ./internal/octree ; \
	   $(GO) test -run XXX -bench 'BenchmarkPingPong|BenchmarkAllgather' -benchtime 200x -count=3 ./internal/mpi ; \
	   $(GO) test -run XXX -bench 'BenchmarkExchangeScale' -benchtime 1x -count=3 . ; \
	   $(GO) test -run XXX -bench 'BenchmarkBlockSteps' -benchtime 1x -count=3 . ; } \
	  | $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# bench-compare guards against perf regressions: rerun the benchmarks into a
# scratch baseline and diff it against the most recent committed
# BENCH_<date>.json (>25% ns/op regressions fail). git ls-files keeps a
# freshly written same-day baseline from being compared against itself.
bench-compare:
	@old=$$(git ls-files 'BENCH_*.json' | sort | tail -1) && \
	test -n "$$old" || { echo "bench-compare: no committed BENCH_*.json baseline"; exit 1; } && \
	$(MAKE) bench BENCH_JSON=bench-new.json && \
	$(GO) run ./cmd/benchjson -compare "$$old" bench-new.json

# SerialLET vs the default overlapped gravity schedule; nonhidden_ms should
# drop and overlap_% rise in the Pipelined (overlapped) variants.
bench-overlap:
	$(GO) test -run XXX -bench 'BenchmarkOverlap' -benchtime 3x .

# End-to-end smoke test of the observability layer: a traced 4-rank run must
# produce a Perfetto-loadable Chrome trace and a parseable metrics stream,
# and tracestats must turn both into the overlap/straggler report.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 2 -q \
	  -trace "$$tmp/trace.json" -metrics "$$tmp/metrics.jsonl" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/metrics.jsonl" "$$tmp/trace.json" && \
	$(GO) run ./cmd/snapinfo -metrics "$$tmp/metrics.jsonl" >/dev/null && \
	echo "trace-smoke: OK"

# End-to-end smoke test of the distributed telemetry plane: a 4-rank
# multi-process unix-socket run with the launcher's collector must produce one
# clock-aligned merged trace (all 4 rank tracks on a common timebase), a
# combined per-rank metrics stream, and a Prometheus snapshot that parses as
# text exposition format.
telemetry-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 2 -q \
	  -transport unix -trace "$$tmp/merged.json" -metrics "$$tmp/merged.jsonl" \
	  -prom-snapshot "$$tmp/metrics.prom" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/merged.jsonl" \
	  -prom "$$tmp/metrics.prom" "$$tmp/merged.json" | tee "$$tmp/report.txt" && \
	grep -q 'trace: 4 ranks' "$$tmp/report.txt" && \
	grep -q 'cross-rank start skew' "$$tmp/report.txt" && \
	grep -q 'format ok' "$$tmp/report.txt" && \
	echo "telemetry-smoke: OK"

# End-to-end smoke test of the all-pairs LET exchange at scale: 256
# in-process ranks, one step. The run must complete with finite stats (the
# JSONL writer rejects NaN/Inf, and no printed number may be one), meter a
# positive byte count for the step, and declare no more boundary+LET bytes
# than the message layer metered; tracestats must digest its metrics.
scale-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model milkyway -n 30000 -ranks 256 -steps 1 -q \
	  -metrics "$$tmp/metrics.jsonl" | tee "$$tmp/run.txt" && \
	awk '/NaN|Inf/ { bad=1 } \
	  /^exchange:/ { for(i=1;i<=NF;i++){ if($$i ~ /^declared-bytes=/) d=substr($$i,16)+0; \
	        if($$i ~ /^metered-bytes=/) m=substr($$i,15)+0 } found=1 } \
	  /^done:/ { done=1 } \
	  END { if (!found || !done) { print "scale-smoke: run incomplete"; exit 1 } \
	        if (bad) { print "scale-smoke: non-finite stats"; exit 1 } \
	        printf "scale-smoke: metered %d bytes, declared boundary+LET %d\n", m, d; \
	        exit (m > 0 && d > 0 && d <= m ? 0 : 1) }' "$$tmp/run.txt" && \
	$(GO) run ./cmd/tracestats -metrics "$$tmp/metrics.jsonl" >/dev/null && \
	echo "scale-smoke: OK"

# End-to-end smoke test of the block-timestep path: a 4-rank multi-process
# unix-socket run with -block-steps must emit substep spans into the merged
# trace and active-fraction metrics into the merged JSONL, and its energy must
# stay conserved (first-vs-last step drift under 0.5%).
block-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/bonsai -model plummer -n 4000 -ranks 4 -steps 4 \
	  -block-steps -max-rungs 3 -transport unix \
	  -trace "$$tmp/merged.json" -metrics "$$tmp/merged.jsonl" \
	  | tee "$$tmp/run.txt" && \
	grep -q '"substep"' "$$tmp/merged.json" && \
	grep -q 'active_frac' "$$tmp/merged.jsonl" && \
	grep -q 'rung_pop' "$$tmp/merged.jsonl" && \
	awk '{for(i=1;i<=NF;i++) if($$i ~ /^E=/) E[++n]=substr($$i,3)} \
	  END { if (n < 2) { print "block-smoke: no energy samples"; exit 1 } \
	        d=(E[n]-E[1])/E[1]; if (d<0) d=-d; \
	        printf "block-smoke: energy drift %.2e over %d samples\n", d, n; \
	        exit (d < 5e-3 ? 0 : 1) }' "$$tmp/run.txt" && \
	echo "block-smoke: OK"
