#!/usr/bin/env bash
# Soak smoke: boot the ccmd daemon on a free port, drive it with the
# soak load generator in gate mode for a short sustained burst, and
# require a clean bill of health — zero daemon panics, zero missing
# request IDs, bounded error rate, and no goroutine growth after the
# load drains. Writes the service-level trajectory to
# benchmarks/BENCH_serve.json (kept as a CI artifact).
#
# Knobs: SOAK_DURATION (default 30s), SOAK_CLIENTS (default 8),
# SOAK_RACE=1 builds the daemon with -race (slower, sharper).
# Run from the repository root.
set -u

DURATION="${SOAK_DURATION:-30s}"
CLIENTS="${SOAK_CLIENTS:-8}"
OUT="${SOAK_OUT:-benchmarks/BENCH_serve.json}"
BINDIR=$(mktemp -d)
LOG=$(mktemp -d)
REMOVE='rm -rf "$BINDIR" "$LOG"'
trap "$REMOVE" EXIT

RACE=()
if [ "${SOAK_RACE:-0}" = "1" ]; then
    RACE=(-race)
fi

go build "${RACE[@]}" -o "$BINDIR/ccmd" ./cmd/ccmd || exit 1
go build -o "$BINDIR/soak" ./cmd/soak || exit 1

echo "== boot ccmd (port 0)"
"$BINDIR/ccmd" -addr 127.0.0.1:0 -max-timeout 10s -timeout 5s \
    -access-log "$LOG/access.log" >"$LOG/ccmd.out" 2>"$LOG/ccmd.err" &
CCMD_PID=$!
trap 'kill "$CCMD_PID" 2>/dev/null; wait "$CCMD_PID" 2>/dev/null; '"$REMOVE" EXIT

BASE=""
for _ in $(seq 1 100); do
    BASE=$(sed -n 's|.*serving on \(http://[^ ]*\).*|\1|p' "$LOG/ccmd.out" | head -1)
    [ -n "$BASE" ] && break
    if ! kill -0 "$CCMD_PID" 2>/dev/null; then
        echo "soak-smoke: daemon died during boot" >&2
        cat "$LOG/ccmd.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$BASE" ]; then
    echo "soak-smoke: daemon never announced its address" >&2
    exit 1
fi
echo "daemon at $BASE"

echo "== soak ($CLIENTS clients, $DURATION, gate mode)"
"$BINDIR/soak" -target "$BASE" -c "$CLIENTS" -duration "$DURATION" \
    -out "$OUT" \
    -max-error-rate 0 -max-panics 0 -max-goroutine-growth 16
SOAK_CODE=$?

echo "== drain (SIGTERM)"
kill -TERM "$CCMD_PID"
DRAIN_OK=1
for _ in $(seq 1 100); do
    if ! kill -0 "$CCMD_PID" 2>/dev/null; then
        DRAIN_OK=0
        break
    fi
    sleep 0.1
done
trap "$REMOVE" EXIT # the daemon is draining: keep only the removal
wait "$CCMD_PID" 2>/dev/null
CCMD_CODE=$?

if [ "$SOAK_CODE" -ne 0 ]; then
    echo "soak-smoke: soak gate failed (exit $SOAK_CODE)" >&2
    exit 1
fi
if [ "$DRAIN_OK" -ne 0 ]; then
    echo "soak-smoke: daemon did not exit within 10s of SIGTERM" >&2
    exit 1
fi
if [ "$CCMD_CODE" -ne 0 ]; then
    echo "soak-smoke: daemon exit $CCMD_CODE, want 0; stderr:" >&2
    cat "$LOG/ccmd.err" >&2
    exit 1
fi
if ! grep -q "drained" "$LOG/ccmd.out"; then
    echo "soak-smoke: daemon never confirmed the drain" >&2
    exit 1
fi
if [ ! -s "$LOG/access.log" ]; then
    echo "soak-smoke: access log is empty" >&2
    exit 1
fi

echo "== trajectory ($OUT)"
grep -E '"(p99_ms|rps|ok)"' "$OUT" || true
echo "soak-smoke: PASS"
