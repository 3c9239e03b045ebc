#!/usr/bin/env bash
# Compare benchmarks/latest.txt against benchmarks/baseline.txt and
# fail if any benchmark's ns/op regressed by more than
# BENCH_MAX_REGRESSION_PCT percent (default 5) or its allocs/op by
# more than BENCH_MAX_ALLOC_REGRESSION_PCT percent (default: same as
# the ns/op threshold). A benchmark present in only one of the two
# files fails the compare too, even when it is advisory: a dropped or
# never-recorded suite is a structural gap, not noise. Names are
# compared without the -GOMAXPROCS suffix Go appends. A machine-readable summary of the comparison
# is written to benchmarks/BENCH_search.json (every latest benchmark,
# base/latest/delta per metric, and the regression list).
#
# Also compares the service-level soak trajectory
# (benchmarks/BENCH_serve.json from cmd/soak) against
# benchmarks/serve-baseline.json when both exist — per-endpoint p99,
# threshold SERVE_MAX_P99_REGRESSION_PCT (default 50) — and skips
# gracefully when either is missing.
#
# Self-contained (awk only): no benchstat dependency. Compare runs on
# the same goos/goarch/CPU as the baseline to avoid false regressions.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="benchmarks/baseline.txt"
LATEST="benchmarks/latest.txt"
JSON_OUT="${BENCH_JSON_OUT:-benchmarks/BENCH_search.json}"
THRESHOLD="${BENCH_MAX_REGRESSION_PCT:-5}"
ALLOC_THRESHOLD="${BENCH_MAX_ALLOC_REGRESSION_PCT:-$THRESHOLD}"

SERVE_LATEST="${SERVE_BENCH_JSON:-benchmarks/BENCH_serve.json}"
SERVE_BASELINE="benchmarks/serve-baseline.json"
SERVE_THRESHOLD="${SERVE_MAX_P99_REGRESSION_PCT:-50}"

# Service-level trajectory: compare the soak harness's per-endpoint
# p99 against a promoted baseline. Latency under load is far noisier
# than ns/op microbenchmarks, so the default threshold is generous.
# Either file missing is a graceful skip — the soak gate itself
# (scripts/soak-smoke.sh) still enforces absolute health.
if [ ! -f "$SERVE_LATEST" ]; then
  echo "no $SERVE_LATEST; skipping serve trajectory compare"
elif [ ! -f "$SERVE_BASELINE" ]; then
  echo "no serve baseline ($SERVE_BASELINE); skipping serve trajectory compare"
  echo "  (promote one with: cp $SERVE_LATEST $SERVE_BASELINE)"
else
  if awk -v thr="$SERVE_THRESHOLD" '
    # Pull "endpoints": { "name": { ... "p99_ms": X ... } } pairs out
    # of the indented soak JSON: a two-space-indented quoted key opens
    # an endpoint object, and the next p99_ms belongs to it.
    /^    "[a-z]+": {/ {
      gsub(/[":{ ]/, "", $1); ep = $1
    }
    /"p99_ms":/ && ep != "" {
      v = $2; gsub(/,/, "", v)
      if (FILENAME == ARGV[1]) base[ep] = v; else latest[ep] = v
      ep = ""
    }
    END {
      fail = 0
      for (e in latest) {
        if (!(e in base) || base[e] + 0 == 0) continue
        delta = (latest[e] - base[e]) / base[e] * 100
        printf("serve %-12s p99 %10.3fms -> %10.3fms  %+7.1f%%\n", e, base[e], latest[e], delta)
        if (delta > thr) {
          printf("REGRESSION serve p99 > %s%%: %s\n", thr, e) > "/dev/stderr"
          fail = 1
        }
      }
      exit fail
    }
  ' "$SERVE_BASELINE" "$SERVE_LATEST"; then
    :
  else
    echo "serve trajectory regressed; see above" >&2
    exit 1
  fi
fi

if [ ! -f "$BASELINE" ] || ! grep -q '^Benchmark' "$BASELINE"; then
  echo "baseline missing or empty; skipping compare"
  exit 0
fi
if [ ! -f "$LATEST" ]; then
  echo "benchmarks/latest.txt not found; run scripts/bench.sh first" >&2
  exit 1
fi

# Cross-CPU deltas are meaningless; on different hardware the compare
# is advisory only (printed, JSON emitted, but never failing). Set
# BENCH_COMPARE_FORCE=1 to gate anyway.
base_cpu=$(grep -m1 '^cpu:' "$BASELINE" || true)
latest_cpu=$(grep -m1 '^cpu:' "$LATEST" || true)
ADVISORY=0
if [ "${BENCH_COMPARE_FORCE:-0}" != "1" ] && [ "$base_cpu" != "$latest_cpu" ]; then
  echo "note: baseline CPU (${base_cpu#cpu: }) != latest CPU (${latest_cpu#cpu: }); compare is advisory"
  ADVISORY=1
fi

awk -v thr="$THRESHOLD" -v athr="$ALLOC_THRESHOLD" -v json="$JSON_OUT" -v advisory="$ADVISORY" '
  # Benchmark output lines look like:
  #   BenchmarkName/sub-8   20   12345 ns/op   678 B/op   9 allocs/op
  # Record the value preceding each unit field, keyed by name.
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op") {
        if (FILENAME == ARGV[1]) base_ns[name] = $(i - 1)
        else latest_ns[name] = $(i - 1)
      } else if ($i == "allocs/op") {
        if (FILENAME == ARGV[1]) base_al[name] = $(i - 1)
        else latest_al[name] = $(i - 1)
      }
    }
    # Remember the encounter order in both files for stable output.
    if (FILENAME == ARGV[1]) {
      if (!(name in in_base)) {
        in_base[name] = 1
        border[++nb] = name
      }
    } else if (!(name in seen)) {
      seen[name] = 1
      order[++n] = name
    }
  }

  # metric emits one JSON object for a metric pair and returns its
  # delta via the global `delta` (-1e9 when no baseline exists).
  function metric(b, l, has_base) {
    if (has_base && b + 0 != 0) {
      delta = (l - b) / b * 100
      return sprintf("{\"base\": %s, \"latest\": %s, \"delta_pct\": %.2f}", b, l, delta)
    }
    delta = -1e9
    return sprintf("{\"base\": null, \"latest\": %s, \"delta_pct\": null}", l)
  }

  END {
    fail = 0
    printf("{\n  \"thresholds_pct\": {\"ns_per_op\": %s, \"allocs_per_op\": %s},\n", thr, athr) > json
    printf("  \"benchmarks\": [") > json
    nreg = 0
    for (k = 1; k <= n; k++) {
      name = order[k]
      ns = metric(base_ns[name], latest_ns[name], name in base_ns)
      dns = delta
      al = metric(base_al[name], latest_al[name], name in base_al)
      dal = delta
      printf("%s\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", \
             k > 1 ? "," : "", name, ns, al) > json

      if (name in base_ns && base_ns[name] + 0 != 0) {
        printf("%-60s %12.0f -> %12.0f ns/op      %+7.1f%%\n", name, base_ns[name], latest_ns[name], dns)
        if (dns > thr) {
          printf("REGRESSION ns/op > %s%%: %s\n", thr, name) > "/dev/stderr"
          regs[++nreg] = name " ns/op"
          fail = 1
        }
      }
      if (name in base_al && base_al[name] + 0 != 0) {
        printf("%-60s %12.0f -> %12.0f allocs/op  %+7.1f%%\n", name, base_al[name], latest_al[name], dal)
        if (dal > athr) {
          printf("REGRESSION allocs/op > %s%%: %s\n", athr, name) > "/dev/stderr"
          regs[++nreg] = name " allocs/op"
          fail = 1
        }
      }
    }
    missing = 0
    for (k = 1; k <= n; k++) {
      if (!(order[k] in in_base)) {
        printf("MISSING from baseline: %s\n", order[k]) > "/dev/stderr"
        regs[++nreg] = order[k] " missing from baseline"
        missing = 1
      }
    }
    for (k = 1; k <= nb; k++) {
      if (!(border[k] in seen)) {
        printf("MISSING from latest: %s\n", border[k]) > "/dev/stderr"
        regs[++nreg] = border[k] " missing from latest"
        missing = 1
      }
    }
    if (missing) fail = 1
    printf("\n  ],\n  \"regressions\": [") > json
    for (k = 1; k <= nreg; k++)
      printf("%s\"%s\"", k > 1 ? ", " : "", regs[k]) > json
    printf("],\n  \"ok\": %s\n}\n", fail ? "false" : "true") > json
    if (missing) exit 1
    if (advisory + 0) exit 0
    exit fail
  }
' "$BASELINE" "$LATEST"
