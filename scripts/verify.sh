#!/usr/bin/env sh
# Repository verification gate: build, lint, test.
#
# Run from the repository root. Fails fast on the first broken step.
# Clippy runs with -D warnings so lint regressions block merges.
set -eu

cargo build --workspace --release
cargo clippy --workspace --all-targets --release -- -D warnings
cargo test --workspace --release

# servebench sits outside the workspace but drives the serving API, so an API
# break must fail here rather than in the benchmark run.
cargo test --release --offline --locked --manifest-path servebench/Cargo.toml

# The parallel block-simulation driver must be bit-identical at any worker
# count and with the block-memo cache on or off (DESIGN.md §2.12); exercise
# the TAHOE_SIM_THREADS × TAHOE_SIM_MEMO env paths across the full 4-cell
# cross-product. The determinism suite also pins the telemetry exports
# (Chrome trace, metrics snapshot, kernel profiles) byte-for-byte across
# worker counts; telemetry_schema keeps the trace loadable by Perfetto,
# profile_schema pins the profiler payload, timeseries_schema pins the
# windowed sampler (DESIGN.md §2.14), decision_schema pins the
# flight-recorder payload and its critical-path sum invariant (DESIGN.md
# §2.15) plus the closed tuning loop's warm/cold and calibrated-engine
# byte-diffs (DESIGN.md §2.16), and drift_audit bounds model-vs-simulator
# error. property_based
# rides along so the functional equivalence proofs (every
# format/plan/strategy, classic and packed node encodings, vs the CPU
# reference) hold in every cell too.
for workers in 1 4; do
    for memo in 0 1; do
        TAHOE_SIM_THREADS=$workers TAHOE_SIM_MEMO=$memo \
            cargo test --release --test determinism --test telemetry_schema \
            --test profile_schema --test timeseries_schema \
            --test decision_schema \
            --test drift_audit --test property_based
    done
done

# Telemetry must be zero-cost when off: spot-check that a bench binary runs
# with the default disabled sink (no --trace/--metrics/--profile) end-to-end.
cargo run --release -p tahoe-bench --bin host_perf -- --scale smoke --detail 4

# End-to-end profiler export: a smoke experiment with --profile must produce
# byte-identical payloads at 1 and 4 workers, and report_md must digest the
# recorded kernel_profiles.json into the summary.
PROFILE_TMP=$(mktemp -d)
TAHOE_SIM_THREADS=1 TAHOE_RESULTS_DIR="$PROFILE_TMP" \
    cargo run --release -p tahoe-bench --bin fig5_strategies -- \
    --scale smoke --detail 4 --profile "$PROFILE_TMP/profiles_w1.json"
TAHOE_SIM_THREADS=4 TAHOE_RESULTS_DIR="$PROFILE_TMP" \
    cargo run --release -p tahoe-bench --bin fig5_strategies -- \
    --scale smoke --detail 4 --profile "$PROFILE_TMP/profiles_w4.json"
cmp "$PROFILE_TMP/profiles_w1.json" "$PROFILE_TMP/profiles_w4.json"
TAHOE_RESULTS_DIR="$PROFILE_TMP" cargo run --release -p tahoe-bench --bin report_md
grep -q "## Kernel profiles" "$PROFILE_TMP/SUMMARY.md"
rm -rf "$PROFILE_TMP"

# Multi-GPU determinism end-to-end (DESIGN.md S2.11): the fig9 cluster
# experiment and a heterogeneous serving trace must produce byte-identical
# records and telemetry exports at 1 and 4 simulation workers. Each run gets
# its own results dir so the byte-compare covers the JSON record itself.
FIG9_W1=$(mktemp -d)
FIG9_W4=$(mktemp -d)
TAHOE_SIM_THREADS=1 TAHOE_RESULTS_DIR="$FIG9_W1" \
    cargo run --release -p tahoe-bench --bin fig9_scaling -- \
    --scale smoke --detail 4 \
    --trace "$FIG9_W1/trace.json" --metrics "$FIG9_W1/metrics.json"
TAHOE_SIM_THREADS=4 TAHOE_RESULTS_DIR="$FIG9_W4" \
    cargo run --release -p tahoe-bench --bin fig9_scaling -- \
    --scale smoke --detail 4 \
    --trace "$FIG9_W4/trace.json" --metrics "$FIG9_W4/metrics.json"
cmp "$FIG9_W1/fig9_scaling.json" "$FIG9_W4/fig9_scaling.json"
cmp "$FIG9_W1/trace.json" "$FIG9_W4/trace.json"
cmp "$FIG9_W1/metrics.json" "$FIG9_W4/metrics.json"
# The reworked weak-scaling check must stay non-vacuous: every variance
# strictly positive, none at/above the paper's 5% bound.
grep -q '"weak_variance": 0\.0$' "$FIG9_W1/fig9_scaling.json" \
    && { echo "weak variance degenerated to zero"; exit 1; }
cargo run --release --bin tahoe-cli -- train \
    --data letter --scale smoke --model "$FIG9_W1/model.json"
TAHOE_SIM_THREADS=1 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --devices k80,p100,v100 --requests 200 --interarrival 50 --slo-ns 500000 \
    --trace "$FIG9_W1/serve_trace.json" --metrics "$FIG9_W1/serve_metrics.json" \
    --timeseries "$FIG9_W1/serve_timeseries.json" \
    --decisions "$FIG9_W1/serve_decisions.json"
TAHOE_SIM_THREADS=4 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --devices k80,p100,v100 --requests 200 --interarrival 50 --slo-ns 500000 \
    --trace "$FIG9_W4/serve_trace.json" --metrics "$FIG9_W4/serve_metrics.json" \
    --timeseries "$FIG9_W4/serve_timeseries.json" \
    --decisions "$FIG9_W4/serve_decisions.json"
cmp "$FIG9_W1/serve_trace.json" "$FIG9_W4/serve_trace.json"
cmp "$FIG9_W1/serve_metrics.json" "$FIG9_W4/serve_metrics.json"
# Windowed time-series exports obey the same byte-identity guarantee
# (DESIGN.md §2.14), SLO windows included.
cmp "$FIG9_W1/serve_timeseries.json" "$FIG9_W4/serve_timeseries.json"
grep -q '"slo_windows"' "$FIG9_W1/serve_timeseries.json"
# The flight recorder (DESIGN.md §2.15) obeys it too: decision audits and
# request paths are byte-identical at any worker count, the serving trace
# carries the per-request flow events, and `tahoe-cli explain` digests the
# export end-to-end.
cmp "$FIG9_W1/serve_decisions.json" "$FIG9_W4/serve_decisions.json"
grep -q '"request path"' "$FIG9_W1/serve_trace.json"
cargo run --release --bin tahoe-cli -- explain \
    --decisions "$FIG9_W1/serve_decisions.json" --top 3 \
    | grep -q "chose '"
grep -q '"calibration_generation"' "$FIG9_W1/serve_decisions.json"

# Closed tuning loop (DESIGN.md §2.16). Warm (cache on, the default) vs
# cold (TAHOE_TUNE_CACHE=0) decision exports may differ only in the
# per-record cache_hit flags: with those lines stripped the two files must
# be byte-identical — the cache replays the exact tune_all output, it never
# re-derives it.
TUNE_TMP=$(mktemp -d)
TAHOE_TUNE_CACHE=1 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --requests 200 --interarrival 50 \
    --decisions "$TUNE_TMP/decisions_warm.json"
TAHOE_TUNE_CACHE=0 cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --requests 200 --interarrival 50 \
    --decisions "$TUNE_TMP/decisions_cold.json"
sed '/"cache_hit"/d' "$TUNE_TMP/decisions_warm.json" > "$TUNE_TMP/warm_stripped.json"
sed '/"cache_hit"/d' "$TUNE_TMP/decisions_cold.json" > "$TUNE_TMP/cold_stripped.json"
cmp "$TUNE_TMP/warm_stripped.json" "$TUNE_TMP/cold_stripped.json"
grep -q '"cache_hit": true' "$TUNE_TMP/decisions_warm.json"
# Drift-driven recalibration end-to-end: a single-device calibrated serve
# accumulates enough observations to refit (64-request batches, so 1000
# requests cross the 8-observation interval twice), and report_md digests
# the cache hit rate and the uncalibrated-vs-calibrated drift means from
# the recorded decision_audit.json.
cargo run --release --bin tahoe-cli -- serve \
    --data letter --scale smoke --model "$FIG9_W1/model.json" \
    --requests 1000 --interarrival 50 --calibrate \
    --decisions "$TUNE_TMP/decision_audit.json"
grep -q '"calibration_generation": [1-9]' "$TUNE_TMP/decision_audit.json"
TAHOE_RESULTS_DIR="$TUNE_TMP" cargo run --release -p tahoe-bench --bin report_md
grep -q "tuning cache:" "$TUNE_TMP/SUMMARY.md"
grep -q "calibration: mean |drift|" "$TUNE_TMP/SUMMARY.md"
rm -rf "$TUNE_TMP"
rm -rf "$FIG9_W1" "$FIG9_W4"

# Bench regression gate, advisory: diff the committed results/ baseline
# against itself so the gate's plumbing is exercised on every verify run (a
# self-diff of deterministic metrics must report zero drift). --warn-only
# keeps it non-blocking for snapshots refreshed on other hosts.
if [ -d results ]; then
    cargo run --release -p tahoe-bench --bin bench_diff -- \
        results results --warn-only
fi
