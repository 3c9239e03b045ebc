#!/usr/bin/env bash
# Streaming smoke: boot a race-built ccmd and drive POST /v1/trace with
# real NDJSON event streams (generated by `verify -events` from the
# repository corpus).
#
# Phase 1 is the online acceptance criterion: stream a known-violating
# trace but WITHHOLD the end event until the service has reported the
# stable violation — proving the verdict arrives before the stream
# closes, not post-mortem. curl uploads half-duplex (it reads no
# response bytes until its upload ends), so the mid-stream proof is
# read from the server side: /statsz's stream gauges must show the
# violation while the stream is still open, and the violation record
# must precede the final record in the response body.
#
# Phase 2 is conformance: for every corpus trace, the final record's
# LC/SC verdict spellings and the implied exit code must match
# `verify -stream` on the same file (which in turn matches the offline
# `verify` run — pinned by the CLI's own tests), and so must POST
# /v1/verify's on the same trace.
#
# Run from the repository root.
set -u

BIN=$(mktemp -d)
LOG=$(mktemp -d)

# On every exit: stop the daemon, then remove the binaries and logs (a
# failing run has printed what it needs from them by then).
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null && wait "$SRV_PID" 2>/dev/null
    rm -rf "$BIN" "$LOG"
}
trap cleanup EXIT

go build -race -o "$BIN/ccmd" ./cmd/ccmd || exit 1
go build -o "$BIN/verify" ./cmd/verify || exit 1

"$BIN/ccmd" -addr 127.0.0.1:0 -cache-mb 0 -stream-heartbeat 200ms \
    >"$LOG/ccmd.out" 2>"$LOG/ccmd.err" &
SRV_PID=$!
BASE=""
for _ in $(seq 1 100); do
    BASE=$(sed -n 's|.*serving on \(http://[^ ]*\).*|\1|p' "$LOG/ccmd.out" | head -1)
    [ -n "$BASE" ] && break
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "stream-smoke: ccmd died during boot" >&2
        cat "$LOG/ccmd.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$BASE" ]; then
    echo "stream-smoke: ccmd never announced its address" >&2
    exit 1
fi
echo "ccmd: $BASE"

# verdict_texts -> two lines: the LC then SC verdict spelling of the
# one record on stdin, a /v1/trace final record or a /v1/verify body
# (field order in both is lc, sc). The `},"text"` anchor picks the
# VerifyResult text (which follows the nested verdict object), not the
# verdict's own text field.
verdict_texts() {
    grep -o '},"text":"[^"]*"' | sed 's/^},"text":"\(.*\)"$/\1/'
}

# final_texts FILE -> verdict_texts of the stream's final record.
final_texts() {
    grep '"type":"final"' "$1" | verdict_texts
}

# verify_body FILE -> the POST /v1/verify body for the trace in FILE:
# {"trace": ...} with the text as a JSON string.
verify_body() {
    printf '{"trace":"'
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' "$1" | awk '{printf "%s\\n", $0}'
    printf '"}'
}

# code_for LC SC -> the exit code verify would map these verdicts to.
code_for() {
    case "$1$2" in
    *VIOLATED*) return 1 ;;
    *INCONCLUSIVE*) return 3 ;;
    *) return 0 ;;
    esac
}

echo "== phase 1: violation verdict must arrive before the stream closes"
"$BIN/verify" -events testdata/corr_violation.trace >"$LOG/events.ndjson" || exit 1
grep -v '"ev":"end"' "$LOG/events.ndjson" >"$LOG/head.ndjson"
FIFO="$LOG/body"
mkfifo "$FIFO"
# -H 'Expect:' is load-bearing: the handler answers 200 before the body
# ends (it must, to stream records), and curl treats that early final
# response as "skip the 100-continue upload" — the events never arrive.
curl -sN -X POST -H 'Content-Type: application/x-ndjson' -H 'Expect:' -T - \
    "$BASE/v1/trace" <"$FIFO" >"$LOG/open-resp.ndjson" &
CURL_PID=$!
exec 3>"$FIFO" # hold the write end open: the stream must not close yet
cat "$LOG/head.ndjson" >&3

stream_gauges() {
    curl -s "$BASE/statsz" | grep -o '"stream":{[^}]*}'
}
SEEN=""
for _ in $(seq 1 100); do
    G=$(stream_gauges)
    if echo "$G" | grep -q '"active":1' && ! echo "$G" | grep -q '"violations":0'; then
        SEEN=yes
        break
    fi
    sleep 0.1
done
if [ -z "$SEEN" ]; then
    echo "stream-smoke: no violation on /statsz while the stream was still open: $(stream_gauges)" >&2
    exec 3>&-
    exit 1
fi
echo "violation proved with the stream still open: $(stream_gauges)"

grep '"ev":"end"' "$LOG/events.ndjson" >&3
exec 3>&-
if ! wait "$CURL_PID"; then
    echo "stream-smoke: curl failed on the held-open stream" >&2
    exit 1
fi
# The response body must carry the violation record ahead of the final.
V_LINE=$(grep -n '"type":"violation"' "$LOG/open-resp.ndjson" | head -1 | cut -d: -f1)
F_LINE=$(grep -n '"type":"final"' "$LOG/open-resp.ndjson" | head -1 | cut -d: -f1)
if [ -z "$V_LINE" ] || [ -z "$F_LINE" ] || [ "$V_LINE" -ge "$F_LINE" ]; then
    echo "stream-smoke: violation record missing or not ahead of the final record" >&2
    cat "$LOG/open-resp.ndjson" >&2
    exit 1
fi

echo "== phase 2: final verdicts and exit codes match verify -stream and /v1/verify"
for f in testdata/*.trace; do
    name=$(basename "$f")
    "$BIN/verify" -events "$f" >"$LOG/$name.events" || exit 1
    curl -sN -X POST -H 'Content-Type: application/x-ndjson' -H 'Expect:' \
        --data-binary "@$LOG/$name.events" "$BASE/v1/trace" \
        >"$LOG/$name.resp" || exit 1

    "$BIN/verify" -stream "$f" >"$LOG/$name.cli" 2>&1
    CLI_CODE=$?
    CLI_LC=$(sed -n 's/^LC: \(.*\)  (search states:.*$/\1/p' "$LOG/$name.cli")
    CLI_SC=$(sed -n 's/^SC: \(.*\)  (search states:.*$/\1/p' "$LOG/$name.cli")

    SRV_LC=$(final_texts "$LOG/$name.resp" | sed -n 1p)
    SRV_SC=$(final_texts "$LOG/$name.resp" | sed -n 2p)
    if [ -z "$SRV_LC" ] || [ -z "$SRV_SC" ]; then
        echo "stream-smoke: $name: final record missing verdicts" >&2
        cat "$LOG/$name.resp" >&2
        exit 1
    fi
    if [ "$SRV_LC" != "$CLI_LC" ] || [ "$SRV_SC" != "$CLI_SC" ]; then
        echo "stream-smoke: $name: verdicts diverge: service LC=$SRV_LC SC=$SRV_SC, cli LC=$CLI_LC SC=$CLI_SC" >&2
        exit 1
    fi
    code_for "$SRV_LC" "$SRV_SC"
    SRV_CODE=$?
    if [ "$SRV_CODE" -ne "$CLI_CODE" ]; then
        echo "stream-smoke: $name: exit codes diverge: service implies $SRV_CODE, verify -stream exited $CLI_CODE" >&2
        exit 1
    fi

    verify_body "$f" >"$LOG/$name.req"
    curl -s -X POST -H 'Content-Type: application/json' \
        --data-binary "@$LOG/$name.req" "$BASE/v1/verify" >"$LOG/$name.verify" || exit 1
    VER_LC=$(verdict_texts <"$LOG/$name.verify" | sed -n 1p)
    VER_SC=$(verdict_texts <"$LOG/$name.verify" | sed -n 2p)
    if [ "$VER_LC" != "$SRV_LC" ] || [ "$VER_SC" != "$SRV_SC" ]; then
        echo "stream-smoke: $name: /v1/verify LC=$VER_LC SC=$VER_SC, /v1/trace final LC=$SRV_LC SC=$SRV_SC" >&2
        cat "$LOG/$name.verify" >&2
        exit 1
    fi
    code_for "$VER_LC" "$VER_SC"
    VER_CODE=$?
    if [ "$VER_CODE" -ne "$CLI_CODE" ]; then
        echo "stream-smoke: $name: exit codes diverge: /v1/verify implies $VER_CODE, verify -stream exited $CLI_CODE" >&2
        exit 1
    fi
    echo "$name: LC=$SRV_LC SC=$SRV_SC exit=$SRV_CODE (/v1/trace, /v1/verify, verify -stream)"
done

echo "stream-smoke: PASS"
