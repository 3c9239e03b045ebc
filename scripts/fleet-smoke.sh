#!/usr/bin/env bash
# Fleet smoke: boot three race-built ccmd replicas, drive fleetctl at
# them over the repository corpus, and require the distributed answer
# to be byte-identical to the single-box ccmc CLI — fault-free AND with
# one replica SIGKILLed mid-run. A final all-dead phase requires a
# clean graceful degradation: exit 3 with typed INCONCLUSIVE(fleet)
# verdicts and the exact shard coverage on stderr.
#
# The ccmc reference output is normalized by stripping the SC
# engine-stats parenthetical ("  (search: N states, ...)"): the stats
# are per-box by nature, so fleetctl intentionally omits them.
#
# Knobs: FLEET_REPEAT (default 40) repetitions of the corpus in the
# kill phase. Run from the repository root.
set -u

REPEAT="${FLEET_REPEAT:-40}"
BINDIR=$(mktemp -d)
LOG=$(mktemp -d)

# On every exit: stop the replicas, then remove the binaries and logs
# (a failing run has printed what it needs from them by then).
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
    done
    rm -rf "$BINDIR" "$LOG"
}
trap cleanup EXIT

go build -race -o "$BINDIR/ccmd" ./cmd/ccmd || exit 1
go build -o "$BINDIR/fleetctl" ./cmd/fleetctl || exit 1
go build -o "$BINDIR/ccmc" ./cmd/ccmc || exit 1

# Boot three replicas on free ports; -cache-mb 0 keeps every check a
# real decision so the kill phase has in-flight work to disrupt.
URLS=()
for i in 1 2 3; do
    "$BINDIR/ccmd" -addr 127.0.0.1:0 -cache-mb 0 -max-timeout 30s \
        >"$LOG/ccmd$i.out" 2>"$LOG/ccmd$i.err" &
    PIDS+=($!)
    disown $! # keep SIGKILL reaping out of the job-control chatter
done
for i in 1 2 3; do
    BASE=""
    for _ in $(seq 1 100); do
        BASE=$(sed -n 's|.*serving on \(http://[^ ]*\).*|\1|p' "$LOG/ccmd$i.out" | head -1)
        [ -n "$BASE" ] && break
        if ! kill -0 "${PIDS[$((i-1))]}" 2>/dev/null; then
            echo "fleet-smoke: replica $i died during boot" >&2
            cat "$LOG/ccmd$i.err" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$BASE" ]; then
        echo "fleet-smoke: replica $i never announced its address" >&2
        exit 1
    fi
    URLS+=("$BASE")
done
REPLICAS="${URLS[0]},${URLS[1]},${URLS[2]}"
echo "fleet: $REPLICAS"

FILES=(testdata/*.ccm)

# The single-box reference, with the per-box SC stats stripped.
for f in "${FILES[@]}"; do
    ref="$LOG/ref-$(basename "$f").txt"
    "$BINDIR/ccmc" -explain "$f" | sed 's/  (search: .*)$//' >"$ref"
    code=${PIPESTATUS[0]}
    if [ "$code" -ne 0 ]; then
        echo "fleet-smoke: ccmc reference failed on $f (exit $code)" >&2
        exit 1
    fi
done

echo "== phase 1: fault-free conformance (3 replicas, 4 shards, -explain)"
for f in "${FILES[@]}"; do
    "$BINDIR/fleetctl" -replicas "$REPLICAS" -shards 4 -explain "$f" \
        >"$LOG/fleet-$(basename "$f").txt" 2>"$LOG/fleet-$(basename "$f").err"
    code=$?
    if [ "$code" -ne 0 ]; then
        echo "fleet-smoke: fleetctl exit $code on $f; stderr:" >&2
        cat "$LOG/fleet-$(basename "$f").err" >&2
        exit 1
    fi
    if ! diff -u "$LOG/ref-$(basename "$f").txt" "$LOG/fleet-$(basename "$f").txt"; then
        echo "fleet-smoke: $f fleet output diverged from single-box ccmc" >&2
        exit 1
    fi
    if grep -q degraded "$LOG/fleet-$(basename "$f").err"; then
        echo "fleet-smoke: fault-free run reported degradation on $f" >&2
        exit 1
    fi
done

echo "== phase 2: SIGKILL one replica mid-run, verdicts must not change"
# Expected output: the corpus repeated REPEAT times, each file under
# its == header (no -explain here; the reference is the verdict table).
for f in "${FILES[@]}"; do
    "$BINDIR/ccmc" "$f" | sed 's/  (search: .*)$//' >"$LOG/plain-$(basename "$f").txt"
done
: >"$LOG/expected-kill.txt"
ARGS=()
for _ in $(seq 1 "$REPEAT"); do
    for f in "${FILES[@]}"; do
        echo "== $f" >>"$LOG/expected-kill.txt"
        cat "$LOG/plain-$(basename "$f").txt" >>"$LOG/expected-kill.txt"
        ARGS+=("$f")
    done
done

"$BINDIR/fleetctl" -replicas "$REPLICAS" -shards 4 -max-attempts 6 \
    "${ARGS[@]}" >"$LOG/kill-run.txt" 2>"$LOG/kill-run.err" &
FLEET_PID=$!

# Wait until the run has produced output (it is genuinely mid-flight),
# then SIGKILL replica 3.
for _ in $(seq 1 200); do
    [ -s "$LOG/kill-run.txt" ] && break
    sleep 0.05
done
if ! kill -0 "$FLEET_PID" 2>/dev/null; then
    echo "fleet-smoke: workload finished before the kill could land; raise FLEET_REPEAT" >&2
    exit 1
fi
kill -KILL "${PIDS[2]}" 2>/dev/null
echo "killed replica 3 (${URLS[2]}) mid-run"

wait "$FLEET_PID"
FLEET_CODE=$?
if [ "$FLEET_CODE" -ne 0 ]; then
    echo "fleet-smoke: fleetctl exit $FLEET_CODE after replica kill, want 0; stderr:" >&2
    tail -20 "$LOG/kill-run.err" >&2
    exit 1
fi
if ! diff -q "$LOG/expected-kill.txt" "$LOG/kill-run.txt" >/dev/null; then
    echo "fleet-smoke: verdicts changed after a replica kill" >&2
    diff -u "$LOG/expected-kill.txt" "$LOG/kill-run.txt" | head -40 >&2
    exit 1
fi

echo "== phase 3: all replicas dead, graceful degradation"
for pid in "${PIDS[@]}"; do
    kill -KILL "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
done
PIDS=()
"$BINDIR/fleetctl" -replicas "$REPLICAS" -shards 2 -max-attempts 2 \
    testdata/dekker.ccm >"$LOG/degrade.txt" 2>"$LOG/degrade.err"
DEGRADE_CODE=$?
if [ "$DEGRADE_CODE" -ne 3 ]; then
    echo "fleet-smoke: all-dead fleet exit $DEGRADE_CODE, want 3" >&2
    exit 1
fi
if ! grep -q 'INCONCLUSIVE(fleet)' "$LOG/degrade.txt"; then
    echo "fleet-smoke: degraded verdicts are not the typed INCONCLUSIVE(fleet)" >&2
    cat "$LOG/degrade.txt" >&2
    exit 1
fi
if ! grep -q 'covered 0/' "$LOG/degrade.err"; then
    echo "fleet-smoke: degrade report lacks the exact shard coverage" >&2
    cat "$LOG/degrade.err" >&2
    exit 1
fi

echo "fleet-smoke: PASS"
