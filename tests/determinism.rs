//! Cross-crate determinism gate for the parallel simulation pipeline.
//!
//! `KernelSim::simulate_blocks` fans sampled blocks out across host worker
//! threads but merges results in plan order, so `finish()` accumulates its
//! floating-point sums in the same sequence regardless of worker count; the
//! memo cache (`KernelSim::simulate_blocks_keyed`, DESIGN.md §2.12) replays
//! cached `BlockResult`s into the very same plan-order merge, so it must not
//! change results either. This test pins both guarantees end-to-end: every
//! strategy is run under the full {memo off, memo on} × {1 worker, 4 workers}
//! cross-product and all four configurations must produce bit-identical
//! `KernelResult`s. `scripts/verify.sh` additionally runs this binary under
//! the same cross-product via `TAHOE_SIM_THREADS` / `TAHOE_SIM_MEMO` to
//! exercise the environment-variable paths.
//!
//! Export identity is layered: Chrome traces (including the per-request
//! async/flow events the flight recorder adds, DESIGN.md §2.15) and
//! flight-recorder decision exports are byte-identical across *all* four
//! configurations (neither carries memo information); metrics snapshots,
//! kernel profiles, and windowed time-series exports are byte-identical
//! across worker counts at a fixed memo setting, and identical across memo
//! settings once the memo accounting itself (`memo_hits` / `memo_misses` /
//! `memo_bytes` / `memo_hit_rate` fields; the `memo_*` series) is normalized
//! out — that accounting is the one thing memoization is *allowed* to change.

use std::sync::Mutex;

use serde_json::Value;
use tahoe::cluster::GpuCluster;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::rearrange::similarity_order;
use tahoe::serving::{BatchingPolicy, ClusterServingSim, ServingSim};
use tahoe::strategy::testutil::{context, Fixture};
use tahoe::strategy::{self, LaunchContext, Strategy, StrategyRun};
use tahoe::telemetry::{TelemetryCtx, TelemetrySink, PID_ENGINE};
use tahoe_forest::Node;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::{Detail, KernelResult};
use tahoe_gpu_sim::memo::set_sim_memo;
use tahoe_gpu_sim::parallel::set_sim_threads;

/// Serializes tests that write the process-global memo / worker overrides
/// (`set_sim_memo` / `set_sim_threads`): two override writers interleaving
/// would observe each other's settings mid-run.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Asserts every field of two kernel results matches bit-for-bit (floats
/// compared via `to_bits`, so `-0.0` vs `0.0` or any ULP drift fails).
fn assert_bit_identical(a: &KernelResult, b: &KernelResult, what: &str) {
    assert_eq!(a.grid_blocks, b.grid_blocks, "{what}: grid_blocks");
    assert_eq!(a.threads_per_block, b.threads_per_block, "{what}: threads_per_block");
    assert_eq!(a.sampled_blocks, b.sampled_blocks, "{what}: sampled_blocks");
    assert_eq!(a.concurrent_blocks, b.concurrent_blocks, "{what}: concurrent_blocks");
    assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits(), "{what}: total_ns");
    assert_eq!(
        a.block_reduction_wall_ns.to_bits(),
        b.block_reduction_wall_ns.to_bits(),
        "{what}: block_reduction_wall_ns"
    );
    assert_eq!(
        a.global_reduction_ns.to_bits(),
        b.global_reduction_ns.to_bits(),
        "{what}: global_reduction_ns"
    );
    assert_eq!(
        a.mean_block_wall_ns.to_bits(),
        b.mean_block_wall_ns.to_bits(),
        "{what}: mean_block_wall_ns"
    );
    assert_eq!(
        a.mean_block_critical_ns.to_bits(),
        b.mean_block_critical_ns.to_bits(),
        "{what}: mean_block_critical_ns"
    );
    assert_eq!(
        a.max_block_wall_ns.to_bits(),
        b.max_block_wall_ns.to_bits(),
        "{what}: max_block_wall_ns"
    );
    assert_eq!(a.gmem, b.gmem, "{what}: gmem");
    assert_eq!(a.smem, b.smem, "{what}: smem");
    assert_eq!(a.steps, b.steps, "{what}: steps");
    assert_eq!(a.active_lane_steps, b.active_lane_steps, "{what}: active_lane_steps");
    assert_eq!(a.warp_size, b.warp_size, "{what}: warp_size");
    // Imbalance vectors: same blocks, same lanes, same busy times, same order.
    assert_eq!(
        a.thread_busy_per_block.len(),
        b.thread_busy_per_block.len(),
        "{what}: sampled block count"
    );
    for (i, (ba, bb)) in a
        .thread_busy_per_block
        .iter()
        .zip(&b.thread_busy_per_block)
        .enumerate()
    {
        assert_eq!(ba.len(), bb.len(), "{what}: block {i} lane count");
        for (lane, (x, y)) in ba.iter().zip(bb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: block {i} lane {lane} busy");
        }
    }
    // Per-level statistics (Fig. 2a instrumentation).
    assert_eq!(
        a.levels.keys().collect::<Vec<_>>(),
        b.levels.keys().collect::<Vec<_>>(),
        "{what}: level keys"
    );
    for (lvl, sa) in &a.levels {
        let sb = &b.levels[lvl];
        assert_eq!(sa.access, sb.access, "{what}: level {lvl} access");
        assert_eq!(
            sa.distance_sum.to_bits(),
            sb.distance_sum.to_bits(),
            "{what}: level {lvl} distance_sum"
        );
        assert_eq!(sa.distance_steps, sb.distance_steps, "{what}: level {lvl} distance_steps");
    }
}

/// One strategy run plus its three telemetry exports, captured under a forced
/// (memo, workers) configuration. Caller must hold [`OVERRIDE_LOCK`].
struct ConfigRun {
    memo: bool,
    workers: usize,
    run: Option<StrategyRun>,
    trace: String,
    metrics: String,
    profiles: String,
    timeseries: String,
    decisions: String,
}

fn run_config(ctx: &LaunchContext<'_>, s: Strategy, memo: bool, workers: usize) -> ConfigRun {
    let sink = TelemetrySink::recording();
    set_sim_memo(Some(memo));
    set_sim_threads(Some(workers));
    let mut c = *ctx;
    c.telemetry = TelemetryCtx { sink: &sink, t0_ns: 0.0 };
    let run = strategy::run(s, &c);
    set_sim_threads(None);
    set_sim_memo(None);
    ConfigRun {
        memo,
        workers,
        run,
        trace: sink.chrome_trace_json(),
        metrics: sink.metrics_json(),
        profiles: sink.profiles_json(),
        timeseries: sink.timeseries_json(),
        decisions: sink.decisions_json(),
    }
}

/// Recursively zeroes the memo-accounting fields of an export: counters
/// (`memo_hits` / `memo_misses` / `memo_bytes`) and the per-kernel profile
/// fields (`memo_hits` / `memo_misses` / `memo_hit_rate`). Everything else —
/// every timing, every histogram bucket, every drift record — is left intact,
/// so comparing normalized exports across memo settings proves memoization
/// changed nothing but its own bookkeeping.
fn zero_memo_fields(v: &mut Value) {
    match v {
        Value::Object(entries) => {
            for (key, val) in entries.iter_mut() {
                if matches!(key.as_str(), "memo_hits" | "memo_misses" | "memo_bytes" | "memo_hit_rate")
                {
                    *val = Value::Number(serde_json::Number::PosInt(0));
                } else {
                    zero_memo_fields(val);
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                zero_memo_fields(item);
            }
        }
        _ => {}
    }
}

fn normalized(json: &str) -> Value {
    let mut v: Value = serde_json::from_str(json).expect("telemetry export parses as JSON");
    zero_memo_fields(&mut v);
    v
}

/// Strips the memo-named series (`memo_hits` / `memo_misses`) from a
/// time-series export. A memo-off run records no memo series at all, so the
/// cross-memo comparison removes the *whole* series rather than zeroing
/// values — everything else (busy fractions, gmem bytes, gauges, latency and
/// SLO windows) must match exactly (DESIGN.md §2.14).
fn normalized_timeseries(json: &str) -> Value {
    let mut v: Value = serde_json::from_str(json).expect("timeseries export parses as JSON");
    if let Value::Object(entries) = &mut v {
        for (key, val) in entries.iter_mut() {
            if key == "series" {
                if let Value::Array(items) = val {
                    items.retain(|s| {
                        !s["name"].as_str().is_some_and(|n| n.starts_with("memo_"))
                    });
                }
            }
        }
    }
    v
}

/// Reads one counter out of a metrics-snapshot export.
fn counter(metrics_json: &str, name: &str) -> u64 {
    let v: Value = serde_json::from_str(metrics_json).expect("metrics export parses");
    v.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics export missing counter {name}"))
}

/// All four strategies under {memo off, on} × {1 worker, 4 workers}:
/// bit-identical kernel results, byte-identical Chrome traces, and metrics /
/// profile exports that differ only in the memo accounting itself.
///
/// Kept as a single test function per override-writing concern: it holds
/// [`OVERRIDE_LOCK`] so the forced phases never interleave with the other
/// override writer ([`memo_cache_keys_on_sample_content`]).
#[test]
fn parallel_simulation_is_bit_identical_to_one_thread() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Both node encodings (DESIGN.md §2.13): the packed struct-of-arrays
    // image takes different traversal/staging paths and folds its width into
    // the memo key, so it gets the same cross-product treatment.
    for (dataset, packed) in [("letter", false), ("higgs", false), ("letter", true)] {
        let fx = if packed {
            Fixture::trained_packed(dataset)
        } else {
            Fixture::trained(dataset)
        };
        // Full detail on the smoke-scale grid: every block simulated, so the
        // merge order is exercised across the whole grid. 32-thread blocks
        // keep every strategy's grid above the parallel driver's sequential
        // cutoff (asserted below) — at the 256-thread default most smoke
        // grids collapse to a handful of blocks and the fan-out path would
        // never run.
        let mut ctx = context(&fx, Detail::Full);
        ctx.block_threads = 32;
        let dataset = format!("{dataset}{}", if packed { "+packed" } else { "" });
        for s in Strategy::ALL {
            // 4 workers even on a 1-core host: oversubscription changes
            // scheduling, never results.
            let configs = [
                run_config(&ctx, s, false, 1),
                run_config(&ctx, s, false, 4),
                run_config(&ctx, s, true, 1),
                run_config(&ctx, s, true, 4),
            ];
            let base = &configs[0];
            for other in &configs[1..] {
                let what =
                    format!("{dataset}/{s} memo={} workers={}", other.memo, other.workers);
                match (&base.run, &other.run) {
                    (Some(a), Some(b)) => {
                        assert!(
                            a.kernel.sampled_blocks > 4,
                            "{what}: grid too small to exercise the parallel driver"
                        );
                        assert_bit_identical(&a.kernel, &b.kernel, &what);
                        assert_eq!(a.geometry, b.geometry, "{what}: geometry");
                        assert_eq!(a.n_samples, b.n_samples, "{what}: n_samples");
                    }
                    (None, None) => {} // infeasible either way — consistent
                    _ => panic!("{what}: feasibility changed with configuration"),
                }
                // Chrome traces and flight-recorder exports carry no memo
                // information at all, so they must match byte-for-byte
                // across the whole cross-product: the trace files users diff
                // are the serialized strings.
                assert_eq!(base.trace, other.trace, "{what}: Chrome trace differs");
                assert_eq!(base.decisions, other.decisions, "{what}: decisions differ");
                if other.memo == base.memo {
                    // Same memo setting: full byte identity across workers.
                    assert_eq!(base.metrics, other.metrics, "{what}: metrics differ");
                    assert_eq!(base.profiles, other.profiles, "{what}: profiles differ");
                    assert_eq!(base.timeseries, other.timeseries, "{what}: timeseries differ");
                } else {
                    // Across memo settings only the memo accounting may move.
                    assert_eq!(
                        normalized(&base.metrics),
                        normalized(&other.metrics),
                        "{what}: metrics differ beyond memo accounting"
                    );
                    assert_eq!(
                        normalized(&base.profiles),
                        normalized(&other.profiles),
                        "{what}: profiles differ beyond memo accounting"
                    );
                    assert_eq!(
                        normalized_timeseries(&base.timeseries),
                        normalized_timeseries(&other.timeseries),
                        "{what}: timeseries differ beyond the memo series"
                    );
                }
            }
            // Memo-on byte identity across worker counts, and the cache
            // accounting must cover exactly the sampled plan.
            assert_eq!(
                configs[2].metrics, configs[3].metrics,
                "{dataset}/{s}: memo-on metrics differ across worker counts"
            );
            assert_eq!(
                configs[2].profiles, configs[3].profiles,
                "{dataset}/{s}: memo-on profiles differ across worker counts"
            );
            assert_eq!(
                configs[2].timeseries, configs[3].timeseries,
                "{dataset}/{s}: memo-on timeseries differ across worker counts"
            );
            if let Some(run) = &configs[2].run {
                let hits = counter(&configs[2].metrics, "memo_hits");
                let misses = counter(&configs[2].metrics, "memo_misses");
                assert_eq!(
                    hits + misses,
                    run.kernel.sampled_blocks as u64,
                    "{dataset}/{s}: every planned block is either a hit or a miss"
                );
                assert_eq!(
                    counter(&configs[0].metrics, "memo_hits") +
                        counter(&configs[0].metrics, "memo_misses"),
                    0,
                    "{dataset}/{s}: memo-off runs must not touch the cache"
                );
            }
        }
    }
    // Multi-GPU cluster serving rides on the same guarantee: per-device
    // sinks are absorbed in device-index order on the caller thread, so the
    // merged exports must also be byte-identical at any worker count — and,
    // normalized, across memo settings.
    let mut per_memo = Vec::new();
    for memo in [false, true] {
        set_sim_memo(Some(memo));
        set_sim_threads(Some(1));
        let seq = cluster_serving_exports();
        set_sim_threads(Some(4));
        let par = cluster_serving_exports();
        set_sim_threads(None);
        set_sim_memo(None);
        assert_eq!(seq.0, par.0, "cluster memo={memo}: Chrome trace differs");
        assert_eq!(seq.1, par.1, "cluster memo={memo}: metrics differ");
        assert_eq!(seq.2, par.2, "cluster memo={memo}: profiles differ");
        assert_eq!(seq.3, par.3, "cluster memo={memo}: timeseries differ");
        assert_eq!(seq.4, par.4, "cluster memo={memo}: decisions differ");
        per_memo.push(seq);
    }
    assert_eq!(per_memo[0].0, per_memo[1].0, "cluster: Chrome trace differs across memo");
    // Decision audits and request paths derive entirely from the simulated
    // clock and the performance model, neither of which memoization may
    // touch, so the export is byte-identical across memo settings too.
    assert_eq!(per_memo[0].4, per_memo[1].4, "cluster: decisions differ across memo");
    assert_eq!(
        normalized(&per_memo[0].1),
        normalized(&per_memo[1].1),
        "cluster: metrics differ beyond memo accounting"
    );
    assert_eq!(
        normalized(&per_memo[0].2),
        normalized(&per_memo[1].2),
        "cluster: profiles differ beyond memo accounting"
    );
    assert_eq!(
        normalized_timeseries(&per_memo[0].3),
        normalized_timeseries(&per_memo[1].3),
        "cluster: timeseries differ beyond the memo series"
    );
}

/// Exports from a heterogeneous multi-GPU serving trace, built under the
/// current worker-count/memo overrides (caller sets them while holding
/// [`OVERRIDE_LOCK`]).
fn cluster_serving_exports() -> (String, String, String, String, String) {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let devices = vec![
        DeviceSpec::tesla_k80(),
        DeviceSpec::tesla_p100(),
        DeviceSpec::tesla_v100(),
    ];
    let mut cluster =
        GpuCluster::with_telemetry(devices, &fx.forest, EngineOptions::tahoe(), sink.clone());
    // A deadline exercises the windowed SLO path; it adds observability only
    // and must not perturb the replay (pinned by `tests/timeseries_schema.rs`).
    let report = ClusterServingSim::new(&mut cluster, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace_with_deadline(&fx.samples, 200, 50.0, Some(500_000.0));
    assert_eq!(report.report.n_requests(), 200);
    (
        sink.chrome_trace_json(),
        sink.metrics_json(),
        sink.profiles_json(),
        sink.timeseries_json(),
        sink.decisions_json(),
    )
}

/// 64-bit FNV-1a over a byte string: a stable, dependency-free
/// fingerprint for pinning an export's exact bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the exact exports of a single-engine serving trace (the `ServingSim`
/// path, which `tests/multi_gpu.rs` only compares report-for-report): the
/// Chrome trace, metrics, kernel profiles, windowed time series and the
/// flight-recorder decisions all fingerprint to fixed constants. What may
/// legitimately vary is normalized first: the engine's wall-clock host track
/// (`PID_ENGINE` tid 0) is dropped from the trace, and memo accounting is
/// zeroed and memo series are stripped, so the constants hold at any
/// `TAHOE_SIM_THREADS` × `TAHOE_SIM_MEMO` setting.
#[test]
fn single_engine_serving_exports_are_pinned() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let report = ServingSim::new(&mut engine, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace_with_deadline(&fx.samples, 300, 50.0, Some(500_000.0));
    assert_eq!(report.n_requests(), 300);

    let mut trace: Value = serde_json::from_str(&sink.chrome_trace_json()).expect("trace parses");
    if let Value::Object(entries) = &mut trace {
        for (key, val) in entries.iter_mut() {
            if let (true, Value::Array(events)) = (key == "traceEvents", val) {
                events.retain(|e| {
                    !(e["ph"].as_str() == Some("X")
                        && e["pid"].as_u64() == Some(u64::from(PID_ENGINE))
                        && e["tid"].as_u64() == Some(0))
                });
            }
        }
    }
    let decisions: Value = serde_json::from_str(&sink.decisions_json()).expect("decisions parse");
    let fingerprint = |v: &Value| fnv1a(serde_json::to_string(v).expect("serializes").as_bytes());
    let got = [
        ("trace", fingerprint(&trace)),
        ("metrics", fingerprint(&normalized(&sink.metrics_json()))),
        ("profiles", fingerprint(&normalized(&sink.profiles_json()))),
        ("timeseries", fingerprint(&normalized_timeseries(&sink.timeseries_json()))),
        ("decisions", fingerprint(&decisions)),
    ];
    let want = [
        ("trace", 7_558_514_781_351_136_944),
        ("metrics", 15_975_621_677_599_587_991),
        ("profiles", 1_488_832_044_322_112_861),
        ("timeseries", 13_625_362_913_152_064_068),
        ("decisions", 10_292_474_204_207_688_920),
    ];
    assert_eq!(got, want, "single-engine serving exports moved");
}

/// Pins the adaptive refresh path end to end (Algorithm 1 line 16, then the
/// §4.2 re-layout): an engine with probability tracking on infers four
/// batches, re-annotates its forest from the observed edge counts and
/// rebuilds the adaptive layout. The refreshed forest's similarity order,
/// the device image's tree roots and bytes, and every re-estimated
/// `left_prob` bit pattern fingerprint to fixed constants, so a rewrite of
/// edge counting, LSH collision counting or the ordering cannot silently
/// change the layout. None of these depend on the simulator, so the
/// constants hold at any `TAHOE_SIM_THREADS` × `TAHOE_SIM_MEMO` setting.
#[test]
fn adaptive_refresh_layout_is_pinned() {
    let mut got = Vec::new();
    for dataset in ["higgs", "letter"] {
        let fx = Fixture::trained(dataset);
        let options = EngineOptions {
            track_probabilities: true,
            ..EngineOptions::tahoe()
        };
        let mut engine = Engine::new(DeviceSpec::tesla_p100(), fx.forest.clone(), options);
        let n = fx.samples.n_samples();
        for batch in 0..4 {
            let rows: Vec<usize> = (batch * n / 4..(batch + 1) * n / 4).collect();
            engine.infer(&fx.samples.select(&rows));
        }
        assert_eq!(engine.observed_samples(), n as u64);
        engine.refresh_probabilities();

        let order = similarity_order(engine.forest(), &options.similarity);
        let order_bytes: Vec<u8> = order.iter().flat_map(|&t| (t as u64).to_le_bytes()).collect();
        let roots: Vec<u8> =
            engine.device_forest().roots().iter().flat_map(|r| r.to_le_bytes()).collect();
        let left_probs: Vec<u8> = engine
            .forest()
            .trees()
            .iter()
            .flat_map(|t| t.nodes())
            .filter_map(|node| match *node {
                Node::Decision { left_prob, .. } => Some(left_prob.to_bits().to_le_bytes()),
                Node::Leaf { .. } => None,
            })
            .flatten()
            .collect();
        got.push((
            dataset,
            [
                fnv1a(&order_bytes),
                fnv1a(&roots),
                fnv1a(&engine.device_forest().encode_image()),
                fnv1a(&left_probs),
            ],
        ));
    }
    let want = [
        (
            "higgs",
            [
                17_484_007_656_726_893_061,
                17_730_087_810_143_058_725,
                14_446_473_268_428_745_236,
                16_373_988_183_020_090_613,
            ],
        ),
        (
            "letter",
            [
                10_104_249_897_811_246_181,
                17_730_087_810_143_058_725,
                11_576_616_952_876_279_431,
                11_707_770_263_096_929_757,
            ],
        ),
    ];
    assert_eq!(got, want, "refreshed adaptive layout moved");
}

/// Pins Algorithm 1's search (lines 8–15): the ranked selection and the
/// audited ladder over smoke letter/higgs/cup98 × K80/P100/V100 × batch
/// sizes {1, 64, 4096}, with and without a fitted calibrator, plus one
/// NaN-poisoned hardware profile. Every prediction term is fingerprinted by
/// its bits, so a rewrite of the tuner cannot silently change a pick, a
/// tie-break, a block size or a rejection reason. Closed-form model
/// evaluation only, so the constants hold at any `TAHOE_SIM_THREADS` ×
/// `TAHOE_SIM_MEMO` setting.
#[test]
fn tuner_ranking_and_ladder_are_pinned() {
    use tahoe::perfmodel::calibrate::RECALIBRATE_INTERVAL;
    use tahoe::perfmodel::{Calibrator, ModelInputs, Prediction};
    use tahoe::tune;
    use tahoe_gpu_sim::{measure, MeasuredParams};

    fn push_prediction(bytes: &mut Vec<u8>, p: &Prediction) {
        for term in [p.t_smem, p.t_gmem, p.t_serial, p.t_b_redu, p.t_g_redu] {
            bytes.extend(term.to_bits().to_le_bytes());
        }
    }
    /// Appends one search's ranked output and audited ladder to the
    /// running byte strings.
    fn record(
        ctx: &LaunchContext<'_>,
        inputs: &ModelInputs,
        hw: &MeasuredParams,
        cal: Option<&Calibrator>,
        bytes: &mut [Vec<u8>; 2],
    ) {
        let [ranked, ladder] = bytes;
        let sweep = tune::sweep_candidates(ctx, inputs, hw, cal);
        for (s, threads, p) in tune::ranked(&sweep) {
            ranked.extend(s.name().as_bytes());
            ranked.extend((threads as u64).to_le_bytes());
            push_prediction(ranked, &p);
        }
        for c in sweep {
            ladder.extend(c.strategy.name().as_bytes());
            ladder.extend((c.block_threads as u64).to_le_bytes());
            match c.outcome {
                Ok(p) => push_prediction(ladder, &p),
                Err(reason) => ladder.extend(reason.as_bytes()),
            }
        }
    }

    // A calibrator whose fitted scales differ per strategy (one clamped),
    // so calibration can re-order both the ladder and the ranking.
    let mut cal = Calibrator::new();
    let ratios = [3.0, 0.5, 1.7, 0.1];
    for i in 0..RECALIBRATE_INTERVAL as usize {
        let k = ratios[i % ratios.len()];
        cal.observe(Strategy::ALL[i % Strategy::ALL.len()], 100.0, 100.0 * k);
    }
    assert!(cal.maybe_recalibrate(), "the fit moves the scales");

    let devices = [DeviceSpec::tesla_k80(), DeviceSpec::tesla_p100(), DeviceSpec::tesla_v100()];
    let hws: Vec<MeasuredParams> = devices.iter().map(measure).collect();
    let fingerprint = |bytes: &[Vec<u8>; 2]| [fnv1a(&bytes[0]), fnv1a(&bytes[1])];
    let mut got = Vec::new();
    for dataset in ["letter", "higgs", "cup98"] {
        let mut fx = Fixture::trained(dataset);
        let pool = fx.samples.clone();
        let stats = fx.forest.stats();
        let mut bytes = [Vec::new(), Vec::new()];
        for batch in [1usize, 64, 4096] {
            let rows: Vec<usize> = (0..batch).map(|i| i % pool.n_samples()).collect();
            fx.samples = pool.select(&rows);
            let inputs = ModelInputs::gather(&fx.device_forest, &stats, &fx.samples);
            for (device, hw) in devices.iter().zip(&hws) {
                let mut ctx = context(&fx, Detail::Sampled(1));
                ctx.device = device;
                for calibrated in [None, Some(&cal)] {
                    record(&ctx, &inputs, hw, calibrated, &mut bytes);
                }
            }
        }
        got.push((dataset, fingerprint(&bytes)));
        if dataset == "letter" {
            // A NaN measured constant poisons every prediction touching it.
            fx.samples = pool.select(&(0..64).collect::<Vec<_>>());
            let inputs = ModelInputs::gather(&fx.device_forest, &stats, &fx.samples);
            let poisoned = MeasuredParams { lat_gmem: f64::NAN, ..hws[1] };
            let mut bytes = [Vec::new(), Vec::new()];
            record(&context(&fx, Detail::Sampled(1)), &inputs, &poisoned, None, &mut bytes);
            got.push(("poisoned", fingerprint(&bytes)));
        }
    }
    let want = [
        ("letter", [17_234_053_643_338_526_113, 1_002_979_018_183_226_875]),
        ("poisoned", [12_411_137_413_925_139_220, 7_445_724_472_132_589_364]),
        ("higgs", [3_818_131_505_453_788_586, 11_106_790_528_134_272_812]),
        ("cup98", [11_238_522_469_834_543_367, 6_662_353_467_048_671_959]),
    ];
    assert_eq!(got, want, "tuner ranking or audited ladder moved");
}

/// End-to-end memo-key discrimination: a batch of 256 identical rows makes
/// every direct-strategy block's window bit-identical (7 hits out of 8
/// blocks), and flipping a *single* sample feature value inside one block's
/// window must turn exactly that block into a second miss — no false sharing.
#[test]
fn memo_cache_keys_on_sample_content() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // 256 copies of row 0: 8 direct blocks at 32 threads, windows 2 KiB
    // apart (letter has 16 attributes), so every base address is congruent
    // modulo the 128 B transaction size and identical content must hit.
    let mut fx = Fixture::trained_with_batch("letter", 256);
    fx.samples = fx.samples.select(&vec![0usize; 256]);
    let run_direct = |fx: &Fixture| -> (KernelResult, u64, u64) {
        let sink = TelemetrySink::recording();
        let mut ctx = context(fx, Detail::Full);
        ctx.block_threads = 32;
        ctx.telemetry = TelemetryCtx { sink: &sink, t0_ns: 0.0 };
        set_sim_memo(Some(true));
        let run = strategy::run(Strategy::Direct, &ctx).expect("direct always runs");
        set_sim_memo(None);
        let snap = sink.snapshot();
        (run.kernel, snap.counters["memo_hits"], snap.counters["memo_misses"])
    };
    let (uniform, hits, misses) = run_direct(&fx);
    assert_eq!(uniform.sampled_blocks, 8, "Full detail simulates the whole grid");
    assert_eq!((hits, misses), (7, 1), "identical windows must all share one simulation");

    // Nudge one feature of one sample in block 3's window by one ULP.
    let poked = fx.samples.row(3 * 32 + 5)[7];
    fx.samples.row_mut(3 * 32 + 5)[7] = f32::from_bits(poked.to_bits() ^ 1);
    let (_poked_run, hits, misses) = run_direct(&fx);
    assert_eq!(
        (hits, misses),
        (6, 2),
        "a single changed feature value must miss exactly its own block"
    );
}

/// A calibrating engine (drift-driven recalibration, DESIGN.md §2.16) stays
/// byte-identical across the full memo × workers cross-product: the
/// calibrator consumes only simulated-clock values, which neither
/// memoization nor worker scheduling may change.
#[test]
fn calibrated_decisions_are_identical_across_memo_and_workers() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = Fixture::trained("letter");
    let run = |memo: bool, workers: usize| -> String {
        set_sim_memo(Some(memo));
        set_sim_threads(Some(workers));
        let sink = TelemetrySink::recording();
        let mut engine = Engine::with_telemetry(
            DeviceSpec::tesla_p100(),
            fx.forest.clone(),
            EngineOptions {
                calibration: true,
                ..EngineOptions::tahoe()
            },
            sink.clone(),
        );
        for _ in 0..12 {
            let _ = engine.infer_with(&fx.samples, Some(Strategy::Direct));
        }
        set_sim_threads(None);
        set_sim_memo(None);
        assert!(
            engine.calibrator().generation() > 0,
            "twelve repeated batches must trigger a refit"
        );
        sink.decisions_json()
    };
    let base = run(false, 1);
    for (memo, workers) in [(false, 4), (true, 1), (true, 4)] {
        assert_eq!(
            base,
            run(memo, workers),
            "calibrated decisions differ at memo={memo} workers={workers}"
        );
    }
    let doc: Value = serde_json::from_str(&base).expect("decisions parse");
    let decisions = doc["decisions"].as_array().expect("decisions array");
    assert!(
        decisions
            .iter()
            .any(|d| d["calibration_generation"].as_u64().unwrap_or(0) > 0),
        "the export records post-refit generations"
    );
}

/// Repeated runs under the ambient configuration (whatever
/// `TAHOE_SIM_THREADS` / `TAHOE_SIM_MEMO` / core count says) are
/// self-consistent. Safe to race with the override tests: neither worker
/// count nor memoization may ever change results.
#[test]
fn repeated_runs_are_self_consistent() {
    let fx = Fixture::trained("ijcnn1");
    let ctx = context(&fx, Detail::Sampled(8));
    for s in Strategy::ALL {
        let Some(first) = strategy::run(s, &ctx) else {
            continue;
        };
        let second = strategy::run(s, &ctx).expect("feasibility is deterministic");
        assert_bit_identical(&first.kernel, &second.kernel, s.name());
    }
}
