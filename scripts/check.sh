#!/usr/bin/env bash
# The pre-merge gate: formatting, lints, and the full test suite.
# Everything here must pass before a change lands (see README "Install /
# build"). Runs entirely offline — the workspace has no external deps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== dropback-lint (strict, timed)"
# Build first so the timing below measures the lint pass, not the compile.
cargo build -q -p dropback-lint
LINT_T0="$(date +%s%N)"
if ! ./target/debug/dropback-lint --check --strict; then
    echo "dropback-lint found violations (or stale lint.allow entries under --strict);" >&2
    echo "run \`cargo run -p dropback-lint -- --check --strict\` for details" >&2
    echo "(rules and rationale: docs/LINTS.md; suppressions: lint.allow)" >&2
    exit 1
fi
LINT_MS=$((($(date +%s%N) - LINT_T0) / 1000000))
# The lint pass gates every PR, so it must stay interactive-fast. The
# budget is generous (structural parse included, the pass takes well
# under a second today); tripping it means something pathological landed.
LINT_BUDGET_MS=30000
echo "dropback-lint pass: ${LINT_MS}ms (budget ${LINT_BUDGET_MS}ms)"
if [ "$LINT_MS" -gt "$LINT_BUDGET_MS" ]; then
    echo "dropback-lint exceeded its ${LINT_BUDGET_MS}ms budget (${LINT_MS}ms)" >&2
    exit 1
fi
# The --json report feeds machine consumers; assert the schema actually
# parses and carries every top-level key before anything downstream
# learns the hard way.
./target/debug/dropback-lint --check --json | python3 -c '
import json, sys
r = json.load(sys.stdin)
keys = {"files_scanned", "failures", "findings", "suppressed", "todos", "unused_allows"}
missing = keys - r.keys()
assert not missing, f"lint --json report is missing keys: {missing}"
assert r["failures"] == len(r["findings"]), "failures count must mirror findings"
assert isinstance(r["files_scanned"], int) and r["files_scanned"] > 50
for s in r["suppressed"]:
    assert s["justification"], "every suppression carries its justification"
print("lint --json schema ok: %d files, %d suppressed" % (r["files_scanned"], len(r["suppressed"])))
'

echo "== resume-determinism smoke (bit-identical crash/resume)"
cargo test -q -p dropback --test resume

echo "== checkpoint corruption fuzz (truncation/bit-flips never panic)"
cargo test -q -p dropback --test corruption

echo "== cargo test"
cargo test --workspace -q

echo "== threads-matrix (bit-identical training at 1 and 4 worker threads)"
# The thread-invariance suite trains the same models at several thread
# counts inside one process; running the whole suite under two ambient
# DROPBACK_THREADS values additionally pins that the *default* pool size
# never leaks into results (see docs/PERFORMANCE.md).
DROPBACK_THREADS=1 cargo test -q -p dropback-repro --test thread_invariance
DROPBACK_THREADS=4 cargo test -q -p dropback-repro --test thread_invariance

echo "== gemm-conformance (packed microkernel vs naive reference, SIMD on/off)"
# The conformance suite compares the packed GEMM against a naive
# triple-loop oracle bit-for-bit and self-toggles the SIMD kernel
# in-process. Rerunning the whole binary under DROPBACK_SIMD=0 pins that
# the env-selected scalar default produces the same bits, and the
# threads-matrix rerun pins the ambient pool size out of the results.
for threads in 1 4; do
    DROPBACK_THREADS=$threads \
        cargo test -q -p dropback-repro --test gemm_conformance
    DROPBACK_SIMD=0 DROPBACK_THREADS=$threads \
        cargo test -q -p dropback-repro --test gemm_conformance
done

echo "== trace smoke (Chrome trace export parses, spans pair up)"
# A short traced training run, then the analyzer re-parses the file and
# fails on JSON errors or unpaired begin/end events.
TRACE_TMP="$(mktemp -t dropback-trace-smoke.XXXXXX.json)"
SERVE_TMP="$(mktemp -d -t dropback-serve-smoke.XXXXXX)"
SERVE_PID=""
CHAOS_PID=""
OBS_PID=""
cleanup() {
    rm -f "$TRACE_TMP"
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2> /dev/null || true
    [ -n "$CHAOS_PID" ] && kill "$CHAOS_PID" 2> /dev/null || true
    [ -n "$OBS_PID" ] && kill "$OBS_PID" 2> /dev/null || true
    rm -rf "$SERVE_TMP"
}
trap cleanup EXIT
cargo build --release -q -p dropback --bins
./target/release/dropback-cli train --model mnist-100-100 --epochs 2 \
    --budget 20000 --train 600 --test 150 --trace "$TRACE_TMP" --quiet > /dev/null
if ! ./target/release/dropback-trace "$TRACE_TMP" > /dev/null; then
    echo "dropback-trace rejected the smoke trace (parse error or unpaired events)" >&2
    exit 1
fi

echo "== serve smoke (boot, /infer, live hot-swap, telemetry digest, clean exit)"
# Prep one real snapshot, boot the server on an ephemeral port, probe it
# over HTTP, write a *newer* snapshot and wait for the hot swap to land,
# assert the latency histogram is populated, then shut down cleanly and
# require the final telemetry digest on stdout.
cargo build --release -q -p dropback-serve --bins
./target/release/dropback-serve prep --dir "$SERVE_TMP/ckpts" --epochs 1 \
    --samples 128 --quiet
./target/release/dropback-serve serve --dir "$SERVE_TMP/ckpts" \
    --addr 127.0.0.1:0 --addr-file "$SERVE_TMP/addr" --quiet \
    > "$SERVE_TMP/digest.json" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -f "$SERVE_TMP/addr" ] && break
    sleep 0.1
done
if [ ! -f "$SERVE_TMP/addr" ]; then
    echo "dropback-serve never published its address" >&2
    exit 1
fi
SERVE_ADDR="$(cat "$SERVE_TMP/addr")"
./target/release/dropback-serve probe --addr "$SERVE_ADDR" \
    --healthz --infer --repeat 3 > /dev/null
# A second training epoch lands on disk; the watcher must hot-swap to it.
./target/release/dropback-serve prep --dir "$SERVE_TMP/ckpts" --epochs 2 \
    --samples 128 --quiet
./target/release/dropback-serve probe --addr "$SERVE_ADDR" \
    --expect-epoch 2 --infer --assert-latency > /dev/null
./target/release/dropback-serve probe --addr "$SERVE_ADDR" --shutdown > /dev/null
wait "$SERVE_PID"
SERVE_PID=""
if ! grep -q '"serve.swaps":1' "$SERVE_TMP/digest.json"; then
    echo "serve digest missing the hot swap:" >&2
    cat "$SERVE_TMP/digest.json" >&2
    exit 1
fi

echo "== chaos smoke (seeded flood sheds 503s, server stays live, drain digest)"
# Boot a deliberately tiny server (1-deep queue, slow flush, short
# io-timeout) and slam it with a seeded flood of real requests plus rude
# mid-body hangups. The server must shed with 503 + Retry-After, answer
# /healthz afterwards, then drain and report the shed/drain counters.
./target/release/dropback-serve serve --dir "$SERVE_TMP/ckpts" \
    --addr 127.0.0.1:0 --addr-file "$SERVE_TMP/chaos-addr" --quiet \
    --queue-cap 1 --max-batch 1 --flush-ms 100 --io-timeout-ms 500 \
    --drain-ms 1000 > "$SERVE_TMP/chaos-digest.json" &
CHAOS_PID=$!
for _ in $(seq 1 100); do
    [ -f "$SERVE_TMP/chaos-addr" ] && break
    sleep 0.1
done
if [ ! -f "$SERVE_TMP/chaos-addr" ]; then
    echo "dropback-serve (chaos) never published its address" >&2
    exit 1
fi
CHAOS_ADDR="$(cat "$SERVE_TMP/chaos-addr")"
./target/release/dropback-serve probe --addr "$CHAOS_ADDR" \
    --flood 16 --seed 1234 --expect-shed --healthz > /dev/null
./target/release/dropback-serve probe --addr "$CHAOS_ADDR" --shutdown > /dev/null
wait "$CHAOS_PID"
CHAOS_PID=""
if grep -q '"serve.shed":0,' "$SERVE_TMP/chaos-digest.json" \
    || ! grep -q '"serve.shed":' "$SERVE_TMP/chaos-digest.json"; then
    echo "chaos digest shows no shed load:" >&2
    cat "$SERVE_TMP/chaos-digest.json" >&2
    exit 1
fi
for key in '"serve.drained":' '"serve.drain.forced":' '"serve.timeout.read":'; do
    if ! grep -q "$key" "$SERVE_TMP/chaos-digest.json"; then
        echo "chaos digest missing $key:" >&2
        cat "$SERVE_TMP/chaos-digest.json" >&2
        exit 1
    fi
done

echo "== serve-trace smoke (async request lanes pair up, access log parses)"
# Boot with request tracing, an access log, and the flight recorder, put
# real + flood traffic through it, and fetch /debug/flightrec live. The
# exported timeline must satisfy the strict analyzer (per-id async lane
# pairing) and every access-log line must be one parseable JSON object
# carrying the per-request schema (the Json::parse round-trip itself is
# pinned by serve's access_log unit test).
./target/release/dropback-serve serve --dir "$SERVE_TMP/ckpts" \
    --addr 127.0.0.1:0 --addr-file "$SERVE_TMP/obs-addr" --quiet \
    --trace "$SERVE_TMP/obs-trace.json" \
    --access-log "$SERVE_TMP/obs-access.jsonl" \
    --flightrec "$SERVE_TMP/obs-flightrec.json" \
    > "$SERVE_TMP/obs-digest.json" &
OBS_PID=$!
for _ in $(seq 1 100); do
    [ -f "$SERVE_TMP/obs-addr" ] && break
    sleep 0.1
done
if [ ! -f "$SERVE_TMP/obs-addr" ]; then
    echo "dropback-serve (trace smoke) never published its address" >&2
    exit 1
fi
OBS_ADDR="$(cat "$SERVE_TMP/obs-addr")"
./target/release/dropback-serve probe --addr "$OBS_ADDR" \
    --healthz --infer --repeat 4 > /dev/null
./target/release/dropback-serve probe --addr "$OBS_ADDR" \
    --flood 8 --seed 99 > /dev/null
./target/release/dropback-serve probe --addr "$OBS_ADDR" \
    --flightrec > "$SERVE_TMP/obs-flightrec-live.json"
./target/release/dropback-serve probe --addr "$OBS_ADDR" --shutdown > /dev/null
wait "$OBS_PID"
OBS_PID=""
for trace in "$SERVE_TMP/obs-trace.json" "$SERVE_TMP/obs-flightrec-live.json"; do
    if ! ./target/release/dropback-trace --json "$trace" > /dev/null; then
        echo "dropback-trace rejected $trace (parse error or unpaired lanes)" >&2
        exit 1
    fi
done
python3 - "$SERVE_TMP/obs-access.jsonl" << 'EOF'
import json, sys
required = {"id", "conn", "method", "target", "status", "reason",
            "queue_ns", "infer_ns", "write_ns"}
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "access log is empty"
ids = set()
infer_ok = 0
for line in lines:
    rec = json.loads(line)
    missing = required - rec.keys()
    assert not missing, f"access record missing {missing}: {rec}"
    assert rec["id"] > 0 and rec["id"] not in ids, "request ids must be unique"
    ids.add(rec["id"])
    if rec["target"] == "/infer" and rec["status"] == 200:
        infer_ok += 1
        assert rec["infer_ns"] > 0, f"served infer has no infer_ns: {rec}"
assert infer_ok >= 4, f"expected >=4 successful /infer records, saw {infer_ok}"
print(f"access log ok: {len(lines)} records, {infer_ok} served infers")
EOF

echo "== paper-shape gate (the repro binaries' shape assertions hold at smoke scale)"
# Eight repro binaries assert a qualitative claim of the paper each: Fig.
# 2's early-vs-late churn, Fig. 4's DropBack tracking the baseline, the
# zeroed ablation collapsing, and so on. A change that legitimately moves
# training bits cannot be checked for equality with its parent; these
# assertions are its oracle. Fixed seed, smoke scale, each must print PASS.
cargo build --release -q -p dropback-bench --bins
for bin in repro_fig1 repro_fig2 repro_fig3 repro_fig4 repro_fig5 repro_fig6 \
    repro_ablation_zeroed repro_headroom; do
    OUT="$SERVE_TMP/$bin.out"
    if ! DROPBACK_SEED=42 DROPBACK_EPOCHS=2 DROPBACK_TRAIN=600 DROPBACK_TEST=200 \
        "./target/release/$bin" > "$OUT" 2>&1 || ! grep -q "PASS" "$OUT"; then
        echo "$bin failed its shape check:" >&2
        tail -20 "$OUT" >&2
        exit 1
    fi
    echo "$bin: PASS"
done

echo "== perfbench gate (benchmark tests, then short runs must be correct)"
# The benchmark is a workspace of its own, so `cargo test --workspace`
# does not reach it. The short runs check, over every index, that exactly
# k weights are tracked and every untracked weight equals its init value;
# the serve runs also check every reply's logits bit for bit.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in mlp-rank mlp-frozen conv-vgg serve-read serve-swap; do
    OUT="$SERVE_TMP/perfbench-$workload.json"
    if ! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > "$OUT"; then
        echo "perfbench $workload failed:" >&2
        cat "$OUT" >&2
        exit 1
    fi
    python3 - "$workload" "$OUT" << 'EOF'
import json, sys
workload, path = sys.argv[1], sys.argv[2]
result = [json.loads(l) for l in open(path) if l.strip()][-1]
assert result.get("correct") is True, f"{workload}: not correct: {result}"
assert result.get("failed") == 0, f"{workload}: failed operations: {result}"
print(f"perfbench {workload}: correct, {result['attempted']} operations")
EOF
done

echo "All checks passed."
