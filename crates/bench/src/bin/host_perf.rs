//! Host wall-clock benchmark of the parallel simulation pipeline.
//!
//! Times the Fig. 5 strategy sweep (all datasets × four strategies on P100)
//! end-to-end twice — block simulation forced to a single worker, then with
//! the default worker pool — and writes `results/BENCH_host_sim.json` so
//! future performance work has a recorded baseline. Forest training/loading
//! happens before the timed region; the sweep only exercises the simulator
//! hot path this PR parallelized.
//!
//! The speedup is bounded by the host's core count (a 1-core CI box records
//! ≈ 1×); the record includes the worker count so readers can interpret it.
//!
//! A second phase times the block-memo cache (DESIGN.md §2.12) on a
//! repeated-geometry batch at `--detail full` — memo off vs memo on in one
//! process via `set_sim_memo`, with the hit rate read back from the
//! telemetry counters. The phase is a spot check as much as a benchmark: it
//! exits non-zero if the repeated-geometry plan reports zero hits, which
//! would mean the strategy key material regressed. A third phase does the
//! same for the tuning-decision cache (DESIGN.md §2.16): repeated identical
//! batches with the cache off vs on, exiting non-zero when the hit rate
//! drops to 90% or below — a repeated batch must hit on every launch after
//! the first. An export phase serves a higgs trace into a recording sink
//! and times the two largest telemetry exports (DESIGN.md §2.9), exiting
//! non-zero when writing the Chrome trace takes longer than the recorded
//! serve it exports. A final spot check pins
//! `TelemetrySink::Disabled` as a strict no-op for the windowed time-series
//! sampler (DESIGN.md §2.14) — the timed phases assume telemetry-off costs
//! nothing.

use std::time::Instant;

use serde::Serialize;

use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ServingSim};
use tahoe::strategy::Strategy;
use tahoe::telemetry::TelemetrySink;
use tahoe::tune::set_tune_cache;
use tahoe_bench::experiments::strategies::strategy_row;
use tahoe_bench::experiments::HIGH_BATCH;
use tahoe_bench::report::write_json;
use tahoe_bench::{prepare, prepare_all, Env};
use tahoe_datasets::{DatasetSpec, SampleMatrix};
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;
use tahoe_gpu_sim::memo::set_sim_memo;
use tahoe_gpu_sim::parallel::{set_sim_threads, sim_threads};

/// `BENCH_host_sim.json` record.
#[derive(Serialize)]
struct HostSimBench {
    /// Worker threads the parallel phase used.
    workers: usize,
    /// Host cores reported by the OS.
    host_cores: usize,
    /// Wall seconds of the sweep with 1 simulation worker.
    sequential_s: f64,
    /// Wall seconds of the sweep with the default worker pool.
    parallel_s: f64,
    /// `sequential_s / parallel_s`.
    speedup: f64,
    /// Datasets swept.
    datasets: usize,
    /// Scale the forests were trained at.
    scale: String,
    /// Sampled blocks per simulated kernel.
    detail: String,
    /// Dataset the memo phase ran on (full detail, repeated-geometry batch).
    memo_dataset: String,
    /// Samples in the memo phase's batch.
    memo_batch: usize,
    /// Wall seconds of the memo phase with the cache off.
    memo_off_s: f64,
    /// Wall seconds of the memo phase with the cache on.
    memo_on_s: f64,
    /// `memo_off_s / memo_on_s`.
    memo_speedup: f64,
    /// Cache hits the memoized run recorded.
    memo_hits: u64,
    /// Cache misses (unique blocks actually simulated).
    memo_misses: u64,
    /// `memo_hits / (memo_hits + memo_misses)`.
    memo_hit_rate: f64,
    /// Repeated identical batches the tuning-cache phase launched.
    tune_batches: usize,
    /// Wall seconds of the tuning-cache phase with the cache off.
    tune_cold_s: f64,
    /// Wall seconds of the tuning-cache phase with the cache on.
    tune_warm_s: f64,
    /// `tune_cold_s / tune_warm_s`.
    tune_speedup: f64,
    /// Tuning-cache hits the recording run observed.
    tuning_cache_hits: u64,
    /// Tuning-cache misses (distinct cache keys actually swept).
    tuning_cache_misses: u64,
    /// `tuning_cache_hits / (tuning_cache_hits + tuning_cache_misses)`.
    tuning_cache_hit_rate: f64,
    /// Requests in the export phase's recorded serve (higgs, one P100).
    export_serve_requests: usize,
    /// Wall milliseconds of that recorded serve (the trace-export bound).
    export_serve_ms: f64,
    /// Wall milliseconds of `chrome_trace_json` on the recorded serve.
    trace_export_ms: f64,
    /// Bytes of that Chrome trace.
    trace_bytes: usize,
    /// Wall milliseconds of `decisions_json` on the recorded serve.
    decisions_export_ms: f64,
}

/// Tiles the first `m` rows of the inference split (`m` = largest power of
/// two ≤ min(n, 512)) to `size` samples. A power-of-two tile keeps block
/// windows repeating with a period of at most two blocks for any
/// warp-multiple block size, so the memo cache is guaranteed repeats —
/// unlike `batch_of`'s `i % n` tiling, whose period can exceed the grid.
fn repeated_batch(samples: &SampleMatrix, size: usize) -> SampleMatrix {
    let mut m = 1usize;
    while m * 2 <= samples.n_samples().min(512) {
        m *= 2;
    }
    let idx: Vec<usize> = (0..size).map(|i| i % m).collect();
    samples.select(&idx)
}

/// Times the direct strategy on `batch` with the memo cache forced to
/// `memo`, telemetry disabled (the hot path under test), best of two runs.
fn timed_memo_run(p: &tahoe_bench::Prepared, batch: &SampleMatrix, memo: bool) -> f64 {
    let opts = EngineOptions {
        detail: Detail::Full,
        functional: false,
        ..EngineOptions::tahoe()
    };
    let mut engine = Engine::new(DeviceSpec::tesla_p100(), p.forest.clone(), opts);
    set_sim_memo(Some(memo));
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        let _ = engine.infer_with(batch, Some(Strategy::Direct));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    set_sim_memo(None);
    best
}

/// Times `n` repeated identical batches through a fresh engine with the
/// tuning-decision cache forced to `cache`, telemetry disabled, best of two
/// runs. The warm run re-sweeps the tuning ladder once and replays the
/// cached plan thereafter; the cold run pays the sweep on every launch.
fn timed_tune_run(
    p: &tahoe_bench::Prepared,
    batch: &SampleMatrix,
    n: usize,
    cache: bool,
) -> f64 {
    set_tune_cache(Some(cache));
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let mut engine = Engine::new(
            DeviceSpec::tesla_p100(),
            p.forest.clone(),
            EngineOptions {
                functional: false,
                ..EngineOptions::tahoe()
            },
        );
        let t0 = Instant::now();
        for _ in 0..n {
            let _ = engine.infer(batch);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    set_tune_cache(None);
    best
}

fn main() {
    let env = Env::from_args();
    let prepared = prepare_all(env.scale);
    let sweep = |label: &str| {
        let t0 = Instant::now();
        for p in &prepared {
            let _ = strategy_row(&env, p, HIGH_BATCH);
        }
        let secs = t0.elapsed().as_secs_f64();
        println!("[host_perf] {label}: {secs:.2} s");
        secs
    };
    // Untimed warm-up: the first sweep after process start pays one-time
    // costs (page faults, batch materialization) that would otherwise be
    // billed to whichever phase runs first. Each phase then reports the
    // faster of two repetitions to shed one-sided scheduler noise.
    sweep("warm-up (untimed)");
    let best_of_2 = |label: &str| sweep(label).min(sweep(label));
    set_sim_threads(Some(1));
    let sequential_s = best_of_2("sequential (1 worker)");
    set_sim_threads(None);
    let workers = sim_threads(usize::MAX);
    let parallel_s = best_of_2(&format!("parallel ({workers} workers)"));

    // Memo phase: full detail, direct strategy, letter, with the batch tiled
    // so block geometry (and content) provably repeats.
    let memo_dataset = "letter";
    let memo_p = prepare(
        &DatasetSpec::by_name(memo_dataset).expect("known dataset"),
        env.scale,
    );
    let batch = repeated_batch(&memo_p.infer.samples, HIGH_BATCH);
    let memo_off_s = timed_memo_run(&memo_p, &batch, false);
    println!("[host_perf] memo off ({memo_dataset}, full detail): {memo_off_s:.2} s");
    let memo_on_s = timed_memo_run(&memo_p, &batch, true);
    println!("[host_perf] memo on  ({memo_dataset}, full detail): {memo_on_s:.2} s");
    // Untimed recording run: read the hit rate back from the counters.
    let sink = TelemetrySink::recording();
    set_sim_memo(Some(true));
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        memo_p.forest.clone(),
        EngineOptions {
            detail: Detail::Full,
            functional: false,
            ..EngineOptions::tahoe()
        },
        sink.clone(),
    );
    let _ = engine.infer_with(&batch, Some(Strategy::Direct));
    set_sim_memo(None);
    let snap = sink.snapshot();
    let (memo_hits, memo_misses) = (snap.counters["memo_hits"], snap.counters["memo_misses"]);
    if memo_hits == 0 {
        eprintln!(
            "[host_perf] FAIL: repeated-geometry batch ({} samples) reported zero memo hits \
             ({memo_misses} misses) — strategy key material regressed",
            batch.n_samples()
        );
        std::process::exit(1);
    }
    // Tuning-cache phase (DESIGN.md §2.16): repeated identical batches, so
    // every launch after the first must replay the cached tuning sweep.
    let tune_batches = 32;
    let tune_cold_s = timed_tune_run(&memo_p, &batch, tune_batches, false);
    println!("[host_perf] tuning cache off ({tune_batches} repeated batches): {tune_cold_s:.2} s");
    let tune_warm_s = timed_tune_run(&memo_p, &batch, tune_batches, true);
    println!("[host_perf] tuning cache on  ({tune_batches} repeated batches): {tune_warm_s:.2} s");
    // Untimed recording run: read the hit rate back from the counters.
    let sink = TelemetrySink::recording();
    set_tune_cache(Some(true));
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        memo_p.forest.clone(),
        EngineOptions {
            functional: false,
            ..EngineOptions::tahoe()
        },
        sink.clone(),
    );
    for _ in 0..tune_batches {
        let _ = engine.infer(&batch);
    }
    set_tune_cache(None);
    let snap = sink.snapshot();
    let (tuning_cache_hits, tuning_cache_misses) = (
        snap.counters["tuning_cache_hits"],
        snap.counters["tuning_cache_misses"],
    );
    let tuning_cache_hit_rate =
        tuning_cache_hits as f64 / (tuning_cache_hits + tuning_cache_misses).max(1) as f64;
    if tuning_cache_hits == 0 || tuning_cache_hit_rate <= 0.9 {
        eprintln!(
            "[host_perf] FAIL: {tune_batches} repeated batches reported a \
             {:.1}% tuning-cache hit rate ({tuning_cache_hits} hits / \
             {tuning_cache_misses} misses) — cache key material regressed",
            100.0 * tuning_cache_hit_rate
        );
        std::process::exit(1);
    }
    println!(
        "[host_perf] tuning-cache hit rate {:.1}% ({tuning_cache_hits} hits / \
         {tuning_cache_misses} misses), speedup {:.2}x",
        100.0 * tuning_cache_hit_rate,
        if tune_warm_s > 0.0 { tune_cold_s / tune_warm_s } else { 1.0 }
    );

    // Export phase (DESIGN.md §2.9): a recorded 16 384-request higgs serve
    // at 325 ns between arrivals, then its two largest exports. Exporting
    // must stay cheaper than the serve it records.
    let export_p = prepared
        .iter()
        .find(|p| p.spec.name == "higgs")
        .expect("higgs is a Table 2 dataset");
    let export_serve_requests = 16_384;
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        export_p.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let t0 = Instant::now();
    let _ = ServingSim::new(&mut engine, BatchingPolicy::low_latency()).run_uniform_trace(
        &export_p.infer.samples,
        export_serve_requests,
        325.0,
    );
    let export_serve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let trace_bytes = sink.chrome_trace_json().len();
    let trace_export_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let _ = sink.decisions_json();
    let decisions_export_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "[host_perf] recorded serve ({export_serve_requests} requests): {export_serve_ms:.1} ms; \
         trace export {trace_export_ms:.1} ms ({:.1} MB); decisions export \
         {decisions_export_ms:.1} ms",
        trace_bytes as f64 / 1e6
    );
    if trace_export_ms > export_serve_ms {
        eprintln!(
            "[host_perf] FAIL: exporting the Chrome trace took {trace_export_ms:.1} ms, \
             longer than the {export_serve_ms:.1} ms recorded serve it exports"
        );
        std::process::exit(1);
    }

    // Disabled-sink spot check (DESIGN.md §2.14): the timed phases above run
    // with telemetry off and rely on the windowed sampler being a strict
    // no-op — nothing recorded, nothing exported. A regression here would
    // silently tax every simulation in this benchmark.
    let disabled = TelemetrySink::Disabled;
    disabled.ts_add_interval(0, tahoe::telemetry::timeseries::BUSY_NS, 0.0, 5e6, 5e6);
    disabled.ts_gauge(0, tahoe::telemetry::timeseries::QUEUE_DEPTH, 0.0, 3.0);
    disabled.record_latency_window(0.0, 1_000.0);
    disabled.record_slo_window(0.0, true);
    let export = disabled.timeseries();
    if !export.series.is_empty()
        || !export.latency_windows.is_empty()
        || !export.slo_windows.is_empty()
    {
        eprintln!("[host_perf] FAIL: disabled sink recorded time-series samples");
        std::process::exit(1);
    }

    let memo_hit_rate = memo_hits as f64 / (memo_hits + memo_misses) as f64;
    println!(
        "[host_perf] memo hit rate {:.1}% ({memo_hits} hits / {memo_misses} misses), \
         speedup {:.2}x",
        100.0 * memo_hit_rate,
        if memo_on_s > 0.0 { memo_off_s / memo_on_s } else { 1.0 }
    );

    let record = HostSimBench {
        workers,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        sequential_s,
        parallel_s,
        speedup: if parallel_s > 0.0 { sequential_s / parallel_s } else { 1.0 },
        datasets: prepared.len(),
        scale: format!("{:?}", env.scale).to_lowercase(),
        detail: match env.detail {
            Detail::Full => "full".to_string(),
            Detail::Sampled(n) => n.to_string(),
        },
        memo_dataset: memo_dataset.to_string(),
        memo_batch: batch.n_samples(),
        memo_off_s,
        memo_on_s,
        memo_speedup: if memo_on_s > 0.0 { memo_off_s / memo_on_s } else { 1.0 },
        memo_hits,
        memo_misses,
        memo_hit_rate,
        tune_batches,
        tune_cold_s,
        tune_warm_s,
        tune_speedup: if tune_warm_s > 0.0 { tune_cold_s / tune_warm_s } else { 1.0 },
        tuning_cache_hits,
        tuning_cache_misses,
        tuning_cache_hit_rate,
        export_serve_requests,
        export_serve_ms,
        trace_export_ms,
        trace_bytes,
        decisions_export_ms,
    };
    println!(
        "[host_perf] speedup {:.2}x with {} workers on {} host cores",
        record.speedup, record.workers, record.host_cores
    );
    write_json("BENCH_host_sim", &record);
}
