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
use tahoe::serving::{BatchingPolicy, ClusterServingSim, ServingSim};
use tahoe::strategy::testutil::{context, Fixture};
use tahoe::strategy::{self, LaunchContext, Strategy, StrategyRun};
use tahoe::telemetry::{TelemetryCtx, TelemetrySink, PID_ENGINE};
use tahoe::tune::{cache_key, set_tune_cache};
use tahoe::ModelInputs;
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

/// Recursively resets every `cache_hit` flag of a decisions export: whether a
/// tuning decision was replayed from the cache is the one thing the cache may
/// change (DESIGN.md §2.16).
fn clear_cache_hits(v: &mut Value) {
    match v {
        Value::Object(entries) => {
            for (key, val) in entries.iter_mut() {
                if key == "cache_hit" {
                    *val = Value::Bool(false);
                } else {
                    clear_cache_hits(val);
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                clear_cache_hits(item);
            }
        }
        _ => {}
    }
}

/// 64-bit FNV-1a over a string's bytes: a stable, dependency-free
/// fingerprint for pinning an export's exact bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the exact exports of a single-engine serving trace (the `ServingSim`
/// path, which `tests/multi_gpu.rs` only compares report-for-report): the
/// Chrome trace, metrics, kernel profiles, windowed time series and the
/// flight-recorder decisions all fingerprint to fixed constants. What may
/// legitimately vary is normalized first: the engine's wall-clock host track
/// (`PID_ENGINE` tid 0) is dropped from the trace, memo accounting is zeroed
/// and memo series are stripped, and `cache_hit` flags are cleared, so the
/// constants hold at any `TAHOE_SIM_THREADS` × `TAHOE_SIM_MEMO` setting.
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
    let mut decisions: Value =
        serde_json::from_str(&sink.decisions_json()).expect("decisions parse");
    clear_cache_hits(&mut decisions);
    let fingerprint = |v: &Value| fnv1a(&serde_json::to_string(v).expect("serializes"));
    let got = [
        ("trace", fingerprint(&trace)),
        ("metrics", fingerprint(&normalized(&sink.metrics_json()))),
        ("profiles", fingerprint(&normalized(&sink.profiles_json()))),
        ("timeseries", fingerprint(&normalized_timeseries(&sink.timeseries_json()))),
        ("decisions", fingerprint(&decisions)),
    ];
    let want = [
        ("trace", 7_558_514_781_351_136_944),
        ("metrics", 5_191_924_975_475_901_831),
        ("profiles", 1_488_832_044_322_112_861),
        ("timeseries", 13_625_362_913_152_064_068),
        ("decisions", 5_271_231_998_148_582_862),
    ];
    assert_eq!(got, want, "single-engine serving exports moved");
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

/// Tuning-decision cache discrimination (DESIGN.md §2.16), mirroring the
/// one-ULP memo probe above: repeated batches share one entry, while a batch
/// shape one sample apart, the packed node encoding, a different device, and
/// a bumped calibration generation must all key distinct entries — no false
/// sharing.
#[test]
fn tuning_cache_keys_on_forest_batch_and_generation() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Key-level probes: every piece of key material must move the key.
    let classic = Fixture::trained("letter");
    let packed = Fixture::trained_packed("letter");
    let stats = classic.forest.stats();
    let inputs = ModelInputs::gather(&classic.device_forest, &stats, &classic.samples);
    let key = |fx: &Fixture, inputs: &ModelInputs, device: &DeviceSpec, generation: u64| {
        cache_key(&fx.device_forest, device, inputs, Detail::Sampled(4), generation)
    };
    let base = key(&classic, &inputs, &classic.device, 0);
    assert_eq!(
        base,
        key(&classic, &inputs, &classic.device, 0),
        "the key is a pure function of its material"
    );
    let mut one_more = inputs;
    one_more.n_batch += 1.0;
    assert_ne!(
        base,
        key(&classic, &one_more, &classic.device, 0),
        "batch shapes one sample apart must not share an entry"
    );
    let packed_inputs = ModelInputs::gather(&packed.device_forest, &stats, &packed.samples);
    assert_ne!(
        base,
        key(&packed, &packed_inputs, &packed.device, 0),
        "classic and packed node encodings must not share an entry"
    );
    assert_ne!(
        base,
        key(&classic, &inputs, &DeviceSpec::tesla_v100(), 0),
        "different devices must not share an entry"
    );
    assert_ne!(
        base,
        key(&classic, &inputs, &classic.device, 1),
        "calibration generations must not share an entry"
    );

    // Behavioral probe through the engine: a repeated batch hits, a batch
    // one sample smaller occupies its own entry.
    set_tune_cache(Some(true));
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        classic.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let full = &classic.samples;
    let smaller_idx: Vec<usize> = (0..full.n_samples() - 1).collect();
    let smaller = full.select(&smaller_idx);
    let _ = engine.infer(full);
    let _ = engine.infer(full);
    let _ = engine.infer(&smaller);
    set_tune_cache(None);
    assert_eq!(engine.tuning_cache_len(), 2, "two batch shapes, two entries");
    let snap = sink.snapshot();
    assert_eq!(snap.counters["tuning_cache_hits"], 1, "the repeated batch hits");
    assert_eq!(snap.counters["tuning_cache_misses"], 2, "each shape misses once");
}

/// Warm (cache on) vs cold (cache off) runs may differ only in the
/// `cache_hit` flags and the cache counters: selection, predictions, drift,
/// and every simulated result are byte-identical (DESIGN.md §2.16).
#[test]
fn tuning_cache_changes_nothing_but_its_own_accounting() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = Fixture::trained("letter");
    let run = |cache: bool| -> (String, Vec<f64>) {
        set_tune_cache(Some(cache));
        let sink = TelemetrySink::recording();
        let mut engine = Engine::with_telemetry(
            DeviceSpec::tesla_p100(),
            fx.forest.clone(),
            EngineOptions::tahoe(),
            sink.clone(),
        );
        let mut totals = Vec::new();
        for _ in 0..3 {
            totals.push(engine.infer(&fx.samples).run.kernel.total_ns);
        }
        set_tune_cache(None);
        (sink.decisions_json(), totals)
    };
    let (warm, warm_totals) = run(true);
    let (cold, cold_totals) = run(false);
    for (a, b) in warm_totals.iter().zip(&cold_totals) {
        assert_eq!(a.to_bits(), b.to_bits(), "the cache must not change simulated results");
    }
    assert_ne!(warm, cold, "the warm run records its cache hits");
    let normalize = |json: &str| -> Value {
        let mut v: Value = serde_json::from_str(json).expect("decisions parse");
        clear_cache_hits(&mut v);
        v
    };
    assert_eq!(
        normalize(&warm),
        normalize(&cold),
        "decisions differ beyond the cache_hit flag"
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
