#!/usr/bin/env bash
# Run the benchmark suites and record the results in
# benchmarks/latest.txt for regression tracking.
#
# Four suites run: the search-engine micro-suite (BenchmarkSearch* in
# internal/search) at a fixed iteration count so runs are quick and
# comparable, the model-decider suite (BenchmarkDecide in
# internal/memmodel — every registered model through DecideByName over
# the litmus corpus), the handler suite (BenchmarkBatch and
# BenchmarkCheck in internal/serve — the fleet's nine-item POST
# /v1/batch and an every-model POST /v1/check, every item decided, at a
# fixed 200 iterations), and the
# paper-experiment suite (BenchmarkLatticeSweep and BenchmarkStar in
# internal/expt: the Figure 1 sweeps and the Theorem 23 NN* fixpoint),
# whose single iteration is a multi-second exhaustive sweep and
# therefore gets a small iteration count of its own.
#
# BENCH_PATTERN / BENCH_TIME override the engine suite's selection and
# -benchtime; BENCH_DECIDE_PATTERN / BENCH_DECIDE_TIME do the same for
# the decider suite, and BENCH_SWEEP_PATTERN / BENCH_SWEEP_TIME for
# the sweep suite. BENCH_SWEEP_TIME=0 skips the sweep suite entirely
# (it costs several CPU-seconds per iteration).
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-BenchmarkSearch}"
TIME="${BENCH_TIME:-50x}"
DECIDE_PATTERN="${BENCH_DECIDE_PATTERN:-BenchmarkDecide}"
DECIDE_TIME="${BENCH_DECIDE_TIME:-50x}"
SWEEP_PATTERN="${BENCH_SWEEP_PATTERN:-BenchmarkLatticeSweep|BenchmarkStar}"
SWEEP_TIME="${BENCH_SWEEP_TIME:-2x}"

mkdir -p benchmarks
{
  go test ./internal/search -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME"
  go test ./internal/memmodel -run '^$' -bench "$DECIDE_PATTERN" -benchmem -benchtime "$DECIDE_TIME"
  go test ./internal/serve -run '^$' -bench 'BenchmarkBatch|BenchmarkCheck' -benchmem -benchtime 200x
  if [ "$SWEEP_TIME" != "0" ]; then
    go test ./internal/expt -run '^$' -bench "$SWEEP_PATTERN" -benchmem -benchtime "$SWEEP_TIME"
  fi
} | tee benchmarks/latest.txt
