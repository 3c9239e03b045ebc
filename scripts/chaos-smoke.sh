#!/usr/bin/env bash
# Chaos-harness smoke test: drive the full explore -> shrink -> replay
# loop through the backersim CLI and assert the exit-code contract.
# Exploration of the stale-read litmus MUST find violations (exit 1),
# the shrunk artifact MUST replay to the same verdict, and a bare plan
# file MUST replay byte-for-byte. Run from the repository root.
set -u

CCM=testdata/stale_read.ccm
BINDIR=$(mktemp -d)
BIN=$BINDIR/backersim
ART=$(mktemp -d)
trap 'rm -rf "$BINDIR" "$ART"' EXIT

go build -o "$BIN" ./cmd/backersim || exit 1

echo "== explore (expect exit 1: violations found)"
"$BIN" -explore -ccm "$CCM" -p 2 | tee "$ART/explore.txt"
code=${PIPESTATUS[0]}
if [ "$code" -ne 1 ]; then
    echo "chaos-smoke: explore exit $code, want 1" >&2
    exit 1
fi
if ! grep -q "^skip-reconcile 1 2$" "$ART/explore.txt"; then
    echo "chaos-smoke: exploration did not report the skip-reconcile violation" >&2
    exit 1
fi

echo "== shrink (expect exit 1 + artifact bundle)"
"$BIN" -shrink -ccm "$CCM" -p 2 -artifact-dir "$ART/repro"
code=$?
if [ "$code" -ne 1 ]; then
    echo "chaos-smoke: shrink exit $code, want 1" >&2
    exit 1
fi
for f in plan.chaos schedule.sched trace.trace computation.dot report.txt; do
    if [ ! -s "$ART/repro/$f" ]; then
        echo "chaos-smoke: artifact file $f missing or empty" >&2
        exit 1
    fi
done

echo "== replay artifact (expect exit 1, matching trace)"
"$BIN" -replay "$ART/repro" | tee "$ART/replay.txt"
code=${PIPESTATUS[0]}
if [ "$code" -ne 1 ]; then
    echo "chaos-smoke: artifact replay exit $code, want 1" >&2
    exit 1
fi
if ! grep -q "replay matches recorded trace: true" "$ART/replay.txt"; then
    echo "chaos-smoke: artifact replay diverged from the recorded trace" >&2
    exit 1
fi
if ! grep -q "verdict: VIOLATED" "$ART/replay.txt"; then
    echo "chaos-smoke: artifact replay verdict changed" >&2
    exit 1
fi

echo "== replay seed plan file (expect exit 1)"
"$BIN" -replay testdata/stale_read.chaos -ccm "$CCM" -p 2
code=$?
if [ "$code" -ne 1 ]; then
    echo "chaos-smoke: plan replay exit $code, want 1" >&2
    exit 1
fi

echo "chaos-smoke: OK"
