#!/usr/bin/env bash
# The full pre-merge gate: formatting, lints as errors, rustdoc as
# errors, the whole test suite. Runs offline against the vendored
# registry stand-ins (see README "Offline builds"); no network access
# required. Each stage reports its wall-clock time.
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
    local name="$1"
    shift
    echo "=== ${name} ==="
    local start=$SECONDS
    "$@"
    echo "--- ${name}: $((SECONDS - start))s"
}

stage "cargo fmt --check" cargo fmt --all -- --check
stage "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings
stage "cargo doc (warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
stage "cargo test" cargo test --workspace -q
# The standalone benchmark package (its own workspace, path deps on
# crates/*) builds and passes its tests, including the byte-identity of
# its wrapped runs: an engine API change that breaks it fails here, not
# only when the benchmark itself runs.
stage "perfbench test" \
    cargo test --offline --release --manifest-path perfbench/Cargo.toml
# Table 2 in quick mode (about 20 s): every policy-generation row runs
# and the paper's ordering FLD D=10 max < FLD D=100 max is asserted.
table2_quick() {
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-bench --bin table2_policy_gen_runtime -- --out "${out}"
    rm -rf "${out}"
}
stage "table2 (quick)" table2_quick
# Randomized resilience smoke: 25 seeded chaos runs, invariants checked
# (determinism, conservation, counter agreement, hedge + admission
# bounds, scale-event accounting, no autoscale output without a policy). The
# full 100-run sweep lives in the simulator's test suite.
stage "chaos sweep (smoke)" cargo run -q -p ramsis-cli -- chaos --runs 25
# Elastic-capacity smoke: a short diurnal day through the autoscaler
# (scale-out, warm-up, drain, scale-in all exercised), then a chaos
# subset biased toward elastic runs. The frontier comparison itself
# lives in the elastic_frontier bench and the bench test suite.
autoscale_smoke() {
    cargo run --release -q -p ramsis-cli -- autoscale --duration 15 --events 0
    cargo run -q -p ramsis-cli -- chaos --runs 10 --seed 88 --max-workers 6
}
stage "autoscale-smoke" autoscale_smoke
# Durability smoke: 25 randomized chaos runs with the kill–resume
# dimension on (each scenario also runs durably, is killed at a random
# checkpoint, and must resume to a byte-identical report and telemetry
# suffix), then the checkpoint-overhead gate in smoke mode (report
# byte-identity across recorder tiers + the capture-cost ceiling), then
# a CLI round trip through the files: a durable run writes its snapshot
# and telemetry log, `replay` checks they agree, and a resume on the
# same log (with a torn tail appended, as a kill mid-write leaves it)
# must reproduce the uninterrupted run's report and log byte for byte.
durability_smoke() {
    local out
    out="$(mktemp -d)"
    cargo run -q -p ramsis-cli -- chaos --runs 25 --seed 11 --kill-resume
    local run=(--m JF --trace constant --load 100 --duration 8 --task image --SLO 150
        --worker 4 --checkpoint "${out}/ckpt.json" --checkpoint-every 500
        --telemetry "${out}/t.jsonl")
    cargo run --release -q -p ramsis-cli -- sim "${run[@]}" --out "${out}/full"
    cp "${out}/t.jsonl" "${out}/full.jsonl"
    cargo run --release -q -p ramsis-cli -- replay "${out}/t.jsonl" --snapshot "${out}/ckpt.json"
    printf '{"at":' >> "${out}/t.jsonl"
    cargo run --release -q -p ramsis-cli -- sim "${run[@]}" --out "${out}/resumed" --resume true
    cmp "${out}/full.jsonl" "${out}/t.jsonl"
    cmp "${out}"/full/results/*.json "${out}"/resumed/results/*.json
    rm -rf "${out}"
}
stage "durability-smoke" durability_smoke
# Decision-provenance smoke: record a run's decision log, explain its
# violations (text + JSON), quantify exact regret by counterfactual
# replay (baseline replays asserted byte-identical inside the run),
# and demand a loud failure on a missing log.
why_smoke() {
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-cli -- gen --task image --SLO 150 --worker 2 --d 10 \
        --load 40 --out "${out}"
    cargo run --release -q -p ramsis-cli -- gen --task image --SLO 150 --worker 2 --d 10 \
        --load 80 --out "${out}"
    cargo run --release -q -p ramsis-cli -- sim --m RAMSIS --trace constant --load 80 \
        --duration 8 --task image --SLO 150 --worker 2 --out "${out}" \
        --telemetry "${out}/t.jsonl" --decisions "${out}/d.jsonl"
    cargo run --release -q -p ramsis-cli -- why "${out}/d.jsonl" \
        --telemetry "${out}/t.jsonl" --top 5
    cargo run --release -q -p ramsis-cli -- why "${out}/d.jsonl" \
        --telemetry "${out}/t.jsonl" --json > /dev/null
    cargo run --release -q -p ramsis-cli -- why --counterfactual --m RAMSIS --trace constant \
        --load 80 --duration 8 --task image --SLO 150 --worker 2 --out "${out}" \
        --max-decisions 3 --alternatives 2
    if cargo run --release -q -p ramsis-cli -- why "${out}/missing.jsonl" \
        --telemetry "${out}/t.jsonl" 2>/dev/null; then
        echo "why accepted a missing decision log" >&2
        return 1
    fi
    rm -rf "${out}"
}
stage "why-smoke" why_smoke
# Observer-overhead smoke: the plain run against every telemetry,
# decision and checkpoint tier, each tier's report byte-identical to
# the plain run, the cross-tier count checks, and the decision
# (off-by-default, per-record) and checkpoint (capture) cost ceilings.
observer_overhead() {
    # No RETURN trap here: one set inside a function stays installed
    # globally and re-fires on the *caller's* return, where the local
    # is gone and `set -u` aborts the whole gate.
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-bench --bin observer_overhead -- --smoke --out "${out}"
    rm -rf "${out}"
}
stage "observer-overhead" observer_overhead
# Failure-detection smoke: 25 randomized chaos runs with the detector
# forced on every scenario (detection-bound, reinstatement and breaker
# invariants all checked), the canonical gray-failure timeline, then
# the detection-frontier bench in smoke mode (lag-within-bound +
# probe-cost monotonicity assertions, results to BENCH_health.json).
health_smoke() {
    local out
    out="$(mktemp -d)"
    cargo run -q -p ramsis-cli -- chaos --runs 25 --seed 17 --health
    cargo run --release -q -p ramsis-cli -- health --duration 10 --events 0
    cargo run --release -q -p ramsis-bench --bin detection_frontier -- --smoke --out "${out}"
    rm -rf "${out}"
}
stage "health-smoke" health_smoke
# Telemetry-at-scale smoke: the sink scalability gates in smoke mode
# (binary ≥ 3x JSONL events/sec, 1%-sampling overhead and per-event
# ceilings, report + sampling-off identity), --validate re-checks the
# written document, then an end-to-end encoding round-trip through the
# CLI: record a binary sampled trace, convert binary → JSONL → binary,
# and demand the final bytes equal the original recording.
telemetry_smoke() {
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-bench --bin telemetry_scale -- --smoke --out "${out}"
    cargo run --release -q -p ramsis-bench --bin telemetry_scale -- \
        --validate "${out}/BENCH_telemetry.json"
    cargo run --release -q -p ramsis-cli -- sim --m JF --trace constant --load 100 \
        --duration 8 --task image --SLO 150 --worker 2 --out "${out}" \
        --telemetry "${out}/t.bin" --telemetry-sample 0.1
    cargo run --release -q -p ramsis-cli -- telemetry "${out}/t.bin" --quiet
    cargo run --release -q -p ramsis-cli -- telemetry convert "${out}/t.bin" \
        "${out}/t.jsonl" --quiet
    cargo run --release -q -p ramsis-cli -- telemetry convert "${out}/t.jsonl" \
        "${out}/t2.bin" --quiet
    cmp "${out}/t.bin" "${out}/t2.bin"
    rm -rf "${out}"
}
stage "telemetry-smoke" telemetry_smoke

echo "ci.sh: all green"
