#!/usr/bin/env bash
# Report-contract smoke test: run the CLIs with -report on checked-in
# testdata and validate the JSON run reports against the schema at
# testdata/report.schema.json. A field rename or type change in the
# report format fails here instead of silently breaking downstream
# report consumers. Run from the repository root.
set -u

BIN=$(mktemp -d)
OUT=$(mktemp -d)
trap 'rm -rf "$BIN" "$OUT"' EXIT

go build -o "$BIN/ccmc" ./cmd/ccmc || exit 1
go build -o "$BIN/backersim" ./cmd/backersim || exit 1
go build -o "$BIN/verify" ./cmd/verify || exit 1
go build -o "$BIN/reportcheck" ./scripts/reportcheck || exit 1

echo "== ccmc -report (expect exit 0: Figure 2 verdicts are definitive)"
"$BIN/ccmc" -report "$OUT/ccmc.json" testdata/figure2.ccm
code=$?
if [ "$code" -ne 0 ]; then
    echo "report-check: ccmc exit $code, want 0" >&2
    exit 1
fi

echo "== ccmc -report on the litmus corpus (expect exit 0: all models decide)"
"$BIN/ccmc" -report "$OUT/ccmc-litmus.json" testdata/litmus/sb.ccm > /dev/null
code=$?
if [ "$code" -ne 0 ]; then
    echo "report-check: ccmc litmus exit $code, want 0" >&2
    exit 1
fi

echo "== backersim -explore -report (expect exit 1: violations found)"
"$BIN/backersim" -explore -ccm testdata/stale_read.ccm -p 2 -report "$OUT/backersim.json" > /dev/null
code=$?
if [ "$code" -ne 1 ]; then
    echo "report-check: backersim explore exit $code, want 1" >&2
    exit 1
fi

echo "== verify -stream -report (expect exit 1: corr_violation is VIOLATED)"
"$BIN/verify" -stream -report "$OUT/verify-stream.json" testdata/corr_violation.trace > /dev/null
code=$?
if [ "$code" -ne 1 ]; then
    echo "report-check: verify -stream exit $code, want 1" >&2
    exit 1
fi

echo "== validate reports against testdata/report.schema.json"
"$BIN/reportcheck" -schema testdata/report.schema.json \
    "$OUT/ccmc.json" "$OUT/ccmc-litmus.json" \
    "$OUT/backersim.json" "$OUT/verify-stream.json" || exit 1

# The reports must also reflect what actually ran: ccmc records one
# engine run per model decision, backersim counts the explored plans.
if ! grep -q '"tool": "ccmc"' "$OUT/ccmc.json"; then
    echo "report-check: ccmc report missing tool stamp" >&2
    exit 1
fi
if ! grep -q '"plans_done": 8' "$OUT/backersim.json"; then
    echo "report-check: backersim report lost the plan count" >&2
    exit 1
fi
# The streaming run must tick the stream counters: one stream done,
# events ingested, and at least one online violation on this trace.
if ! grep -q '"streams_done": 1' "$OUT/verify-stream.json"; then
    echo "report-check: verify -stream report lost the stream count" >&2
    exit 1
fi
if grep -q '"stream_violations": 0' "$OUT/verify-stream.json"; then
    echo "report-check: verify -stream report shows no online violations" >&2
    exit 1
fi
if grep -q '"trace_events_ingested": 0' "$OUT/verify-stream.json"; then
    echo "report-check: verify -stream report shows no ingested events" >&2
    exit 1
fi

# The per-model decision counters must cover the hardware/language
# models: one decision per registered model on a full ccmc survey.
for m in SC LC TSO RA CAUSAL; do
    if ! grep -q "\"$m\": 1" "$OUT/ccmc-litmus.json"; then
        echo "report-check: ccmc litmus decisions missing model $m" >&2
        exit 1
    fi
done

echo "report-check: OK"
