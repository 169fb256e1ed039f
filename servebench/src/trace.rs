//! The traced run: per-layer host time from spans the benchmark records
//! around public calls, and per-layer simulated quantities.
//!
//! Two passes walk every dispatched batch of the checked serve, in dispatch
//! order, on a fresh server each. Both rebuild the batch, pin the engine's
//! clock to the batch's dispatch instant, call `Engine::infer`, and refresh
//! between segments as the serve did, so the engine goes through exactly the
//! states it had in the serve.
//!
//! 1. The span pass times `Engine::infer` and each refresh, and nothing else,
//!    so each engine call meets the caches a serve leaves behind.
//! 2. The replay pass then replays the engine's children through their
//!    public entry points, twice, keeping the faster replay:
//!    `ModelInputs::gather` → `tune::tune_all` → `strategy::run` (the chosen
//!    strategy and block size) → `DeviceForest::predict_batch` →
//!    `EdgeCounter::observe`.
//!
//! Engine self time is the span pass's infer span minus the replayed
//! children laid end to end inside it (`stats::self_time`). The replays run
//! on warm caches and keep the faster of two, so it is an upper bound.

use std::time::Instant;

use tahoe::engine::Engine;
use tahoe::perfmodel::{self, ModelInputs};
use tahoe::profile::{DriftRecord, KernelProfile};
use tahoe::serving::BatchRecord;
use tahoe::strategy::common::THREADS_PER_BLOCK;
use tahoe::strategy::{self, LaunchContext, Strategy, StrategyRun};
use tahoe::telemetry::{TelemetryCtx, TelemetrySink};
use tahoe::tune;
use tahoe_datasets::SampleMatrix;
use tahoe_forest::probability::EdgeCounter;
use tahoe_forest::ForestStats;
use tahoe_gpu_sim::memory::{GlobalBuffer, ALLOC_ALIGN};

use crate::stats::{self, Span};
use crate::workload::{ns_since, workload_sink, Prepared, Served, Server, Workload};

/// One batch of the traced run.
#[derive(Clone, Debug)]
pub struct BatchTrace {
    /// `Engine::infer` host time in the span pass (ns).
    pub infer_ns: f64,
    /// Faster replay of each child (ns), in call order: gather, tune, run,
    /// predict, observe. `tune` is the replayed `tune_all`, whether or not
    /// the engine's cache hit.
    pub child_ns: [f64; 5],
    /// Whether the engine's tuning cache answered this batch.
    pub tune_cache_hit: bool,
    /// Engine self time (ns): the infer span minus the children the engine
    /// actually ran (`tune` only on a cache miss).
    pub self_ns: f64,
    /// Strategy the replayed tuner chose (the engine's choice, or the run
    /// is flagged divergent).
    pub strategy: Strategy,
    /// Profile of the replayed launch (recorded in a separate, untimed
    /// replay so profiling never lands in a timed span).
    pub profile: KernelProfile,
    /// `|predicted − simulated| / simulated` of the §6 model on the launch.
    pub abs_rel_error: f64,
}

/// The traced run's output.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// One entry per dispatched batch, in dispatch order.
    pub batches: Vec<BatchTrace>,
    /// Host time of each `Engine::refresh_probabilities` round (ns).
    pub refresh_ns: Vec<f64>,
    /// Wall time of both passes (ns).
    pub wall_ns: f64,
    /// Batches whose engine call or replayed launch disagreed with the
    /// untraced serve on the simulated clock (must be empty).
    pub divergent: Vec<String>,
}

/// Child results of one replay.
struct Children {
    ns: [f64; 5],
    strategy: Strategy,
    threads: usize,
    run: StrategyRun,
    inputs: ModelInputs,
}

/// A staging buffer placed where the engine places its own: the first
/// aligned address past the forest image.
fn staging_buffer(engine: &Engine, samples: &SampleMatrix) -> GlobalBuffer {
    let end = engine
        .device_forest()
        .buffers()
        .iter()
        .map(|b| b.base + b.bytes)
        .max()
        .unwrap_or(0);
    GlobalBuffer {
        base: end.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN,
        bytes: (samples.n_samples() * samples.n_attributes() * 4) as u64,
    }
}

fn launch_ctx<'a>(
    engine: &'a Engine,
    samples: &'a SampleMatrix,
    telemetry: TelemetryCtx<'a>,
) -> LaunchContext<'a> {
    LaunchContext {
        device: engine.device(),
        forest: engine.device_forest(),
        samples,
        sample_buf: staging_buffer(engine, samples),
        detail: engine.options().detail,
        block_threads: THREADS_PER_BLOCK,
        telemetry,
    }
}

/// Replays the engine's children on `batch`, timing each.
fn replay_children(
    engine: &Engine,
    stats: &ForestStats,
    batch: &SampleMatrix,
    counter: Option<&mut EdgeCounter>,
) -> Children {
    let mut ns = [0.0; 5];
    let t = Instant::now();
    let inputs = ModelInputs::gather(engine.device_forest(), stats, batch);
    ns[0] = ns_since(t);
    let ctx = launch_ctx(engine, batch, TelemetryCtx::disabled());
    let t = Instant::now();
    let tuned = tune::tune_all(&ctx, &inputs, engine.hardware_params());
    ns[1] = ns_since(t);
    let (strategy, threads) = if engine.options().model_selection {
        let &(s, threads, _) = tuned
            .first()
            .expect("shared data and direct are always feasible");
        (s, threads)
    } else {
        (Strategy::SharedData, THREADS_PER_BLOCK)
    };
    let t = Instant::now();
    let run = strategy::run(
        strategy,
        &LaunchContext {
            block_threads: threads,
            ..ctx
        },
    )
    .expect("the tuner only ranks feasible strategies");
    ns[2] = ns_since(t);
    if engine.options().functional {
        let t = Instant::now();
        let predictions = engine.device_forest().predict_batch(batch);
        ns[3] = ns_since(t);
        std::hint::black_box(predictions);
    }
    if let Some(counter) = counter {
        let t = Instant::now();
        counter.observe(engine.forest(), batch);
        ns[4] = ns_since(t);
    }
    Children {
        ns,
        strategy,
        threads,
        run,
        inputs,
    }
}

/// Walks the batches of `parts` (one per segment, as the serve dispatched
/// them) on `server`: `visit(server, k, index, record, device, batch)` runs
/// each batch, and the server refreshes between segments. Returns the host
/// time of each refresh.
fn walk(
    p: &Prepared,
    server: &mut Server,
    parts: &[Served],
    mut visit: impl FnMut(&mut Server, usize, usize, &BatchRecord, usize, &SampleMatrix),
) -> Vec<f64> {
    let mut refresh_ns = Vec::new();
    let mut index = 0usize;
    for (k, (part, payloads)) in parts.iter().zip(&p.segments).enumerate() {
        let mut first = 0usize;
        for (record, &dev) in part.report.batches.iter().zip(&part.devices) {
            let rows: Vec<usize> = (first..first + record.size)
                .map(|r| r % payloads.n_samples())
                .collect();
            first += record.size;
            visit(server, k, index, record, dev, &payloads.select(&rows));
            index += 1;
        }
        if k + 1 < parts.len() {
            let t = Instant::now();
            server.refresh();
            refresh_ns.push(ns_since(t));
        }
    }
    refresh_ns
}

/// Runs `Engine::infer` on one batch at its dispatch instant, noting any
/// disagreement with the serve's record.
fn infer_at(
    server: &mut Server,
    index: usize,
    record: &BatchRecord,
    dev: usize,
    batch: &SampleMatrix,
    divergent: &mut Vec<String>,
) -> f64 {
    let engine = server.engine_mut(dev);
    engine.set_sim_clock_ns(record.dispatched_at_ns);
    let t = Instant::now();
    let result = engine.infer(batch);
    let infer_ns = ns_since(t);
    if result.strategy != record.strategy
        || result.run.kernel.total_ns.to_bits() != record.gpu_ns.to_bits()
    {
        divergent.push(format!(
            "batch {index}: traced Engine::infer ran {} in {} ns, untraced serve {} in {} ns",
            result.strategy.name(),
            result.run.kernel.total_ns,
            record.strategy.name(),
            record.gpu_ns
        ));
    }
    infer_ns
}

/// Runs both passes over the checked serve's batches, each on a fresh
/// server recording into the workload's sink.
pub fn traced_run(w: &Workload, p: &Prepared, parts: &[Served]) -> Traced {
    let t_run = Instant::now();
    let mut divergent = Vec::new();

    // Span pass.
    let mut server = Server::build(w, &p.forest, workload_sink(w));
    let mut infer_ns = Vec::new();
    let refresh_ns = walk(
        p,
        &mut server,
        parts,
        |server, _, index, record, dev, batch| {
            infer_ns.push(infer_at(server, index, record, dev, batch, &mut divergent));
        },
    );

    // Replay pass.
    let mut server = Server::build(w, &p.forest, workload_sink(w));
    let mut batches = Vec::with_capacity(infer_ns.len());
    let mut segment = usize::MAX;
    let mut stats: Vec<ForestStats> = Vec::new();
    let mut counters: Vec<Option<EdgeCounter>> = Vec::new();
    walk(
        p,
        &mut server,
        parts,
        |server, k, index, record, dev, batch| {
            if k != segment {
                segment = k;
                stats = (0..server.n_devices())
                    .map(|d| server.engine(d).forest().stats())
                    .collect();
                counters = (0..server.n_devices())
                    .map(|d| {
                        let e = server.engine(d);
                        e.options()
                            .track_probabilities
                            .then(|| EdgeCounter::new(e.forest()))
                    })
                    .collect();
            }
            let cache_before = server.engine(dev).tuning_cache_len();
            infer_at(server, index, record, dev, batch, &mut divergent);
            let tune_cache_hit =
                tune::tune_cache_enabled() && server.engine(dev).tuning_cache_len() == cache_before;
            let engine = server.engine(dev);
            let replay = replay_children(engine, &stats[dev], batch, counters[dev].as_mut());
            let again = replay_children(engine, &stats[dev], batch, counters[dev].as_mut());
            let mut child_ns = [0.0; 5];
            for (c, (a, b)) in child_ns.iter_mut().zip(replay.ns.iter().zip(&again.ns)) {
                *c = a.min(*b);
            }
            let mut ran = child_ns;
            if tune_cache_hit {
                ran[1] = 0.0;
            }
            let parent = Span {
                start: 0.0,
                end: infer_ns[index],
            };
            let self_ns = stats::self_time(parent, &stats::sequential_children(parent, &ran));
            if record.chunks == 1
                && (replay.strategy != record.strategy
                    || replay.run.kernel.total_ns.to_bits() != record.gpu_ns.to_bits())
            {
                divergent.push(format!(
                    "batch {index}: replayed strategy::run ran {} in {} ns, serve {} in {} ns",
                    replay.strategy.name(),
                    replay.run.kernel.total_ns,
                    record.strategy.name(),
                    record.gpu_ns
                ));
            }
            let n = batch.n_samples();
            let predicted = perfmodel::predict(
                replay.strategy,
                &replay.inputs,
                engine.hardware_params(),
                &replay.run.geometry,
                engine.device(),
            )
            .total()
                * n as f64;
            let drift = DriftRecord::new(
                replay.strategy.name(),
                n,
                predicted,
                replay.run.kernel.total_ns,
            );
            batches.push(BatchTrace {
                infer_ns: infer_ns[index],
                child_ns,
                tune_cache_hit,
                self_ns,
                strategy: replay.strategy,
                profile: profile_launch(engine, batch, replay.strategy, replay.threads),
                abs_rel_error: drift.relative_error.abs(),
            });
        },
    );
    Traced {
        batches,
        refresh_ns,
        wall_ns: ns_since(t_run),
        divergent,
    }
}

/// The replayed launch's `KernelProfile`, read back from a private
/// recording sink.
fn profile_launch(
    engine: &Engine,
    batch: &SampleMatrix,
    s: Strategy,
    threads: usize,
) -> KernelProfile {
    let sink = TelemetrySink::recording();
    let ctx = LaunchContext {
        block_threads: threads,
        ..launch_ctx(
            engine,
            batch,
            TelemetryCtx {
                sink: &sink,
                t0_ns: 0.0,
            },
        )
    };
    let _ = strategy::run(s, &ctx);
    sink.profiles()
        .kernels
        .pop()
        .expect("a recording launch pushes its profile")
}
