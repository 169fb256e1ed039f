//! Turns a run's measurements into named metrics and prints them.

use serde_json::Value;

use tahoe::serving::ServingReport;
use tahoe::strategy::Strategy;

use crate::provenance::{int, num, obj, text};
use crate::stats::{self, Span};
use crate::workload::{Workload, EXPORTS};
use crate::RunData;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (module-qualified for per-layer metrics).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A run's verdict and metrics.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every request served correctly and every determinism check held.
    pub correct: bool,
    /// Requests attempted over all passes.
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// End-to-end metrics (the `--trace 0` result).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the `--trace 1` result).
    pub per_layer: Vec<Metric>,
    /// Printed but not part of the result line (`failed_frac` is 0 on a
    /// healthy run, and result metrics must never be 0).
    pub extra: Vec<Metric>,
    /// Context for the printed report (tail percentiles, violations).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The outcome of a workload that panicked before finishing.
    #[must_use]
    pub fn panicked(n_requests: usize) -> Self {
        Outcome {
            correct: false,
            attempted: n_requests.max(1),
            failed: n_requests.max(1),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            extra: vec![m("failed_frac", 1.0, "fraction")],
            notes: vec!["the workload panicked; every request counts as failed".to_string()],
        }
    }

    /// Every metric, for the run record.
    #[must_use]
    pub fn all_metrics(&self) -> Vec<Metric> {
        self.end_to_end
            .iter()
            .chain(&self.extra)
            .chain(&self.per_layer)
            .cloned()
            .collect()
    }

    /// Prints the human-readable report, then the result line.
    pub fn print(&self, w: &Workload, seed: u64, trace: bool) {
        println!(
            "servebench {} seed {seed} trace {}: {}",
            w.name,
            u8::from(trace),
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for metric in self
            .end_to_end
            .iter()
            .chain(&self.extra)
            .chain(&self.per_layer)
        {
            println!(
                "  {:<40} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        let chosen = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<(String, Value)> = chosen
            .iter()
            .map(|x| {
                (
                    x.name.clone(),
                    obj(vec![("value", num(x.value)), ("unit", text(x.unit))]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", int(self.attempted as u64)),
            ("failed", int(self.failed as u64)),
            ("metrics", Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("result serializes")
        );
    }
}

/// Policy-ready instant of each batch of a uniform trace (the serving
/// simulator's batch-formation rule: full batch or oldest request's
/// deadline, never before the oldest request arrives).
#[must_use]
pub fn batch_ready_times(w: &Workload, r: &ServingReport, ia: f64, n_requests: usize) -> Vec<f64> {
    let mut first = 0usize;
    r.batches
        .iter()
        .map(|b| {
            let first_arrival = first as f64 * ia;
            let full_at = (first + w.policy.max_batch - 1).min(n_requests - 1) as f64 * ia;
            first += b.size;
            full_at
                .min(first_arrival + w.policy.max_delay_ns)
                .max(first_arrival)
        })
        .collect()
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn strategy_id(s: Strategy) -> &'static str {
    match s {
        Strategy::SharedData => "shared_data",
        Strategy::Direct => "direct",
        Strategy::SharedForest => "shared_forest",
        Strategy::SplittingSharedForest => "splitting_shared_forest",
    }
}

/// Builds the outcome of a finished run.
#[must_use]
pub fn outcome(w: &Workload, d: &RunData, trace: bool) -> Outcome {
    let r = &d.served.report;
    let failed = d.failures.total(d.attempted);
    let correct = failed == 0 && d.violations.is_empty();
    let mut notes: Vec<String> = d
        .violations
        .iter()
        .map(|v| format!("VIOLATION: {v}"))
        .collect();

    let setup: Vec<f64> = d.stages.iter().map(|s| s.total_ns / 1e9).collect();
    let rep_rates: Vec<f64> = d
        .reps
        .iter()
        .map(|t| w.n_requests as f64 / (t.total_ns() / 1e9))
        .collect();
    let lat = stats::summarize(&r.latencies_ns);
    notes.push(format!(
        "sim_latency_tail_us is p{} over {} requests ({} beyond it)",
        100.0 * lat.tail_q,
        lat.n,
        lat.beyond_tail
    ));
    notes.push(format!(
        "{} timed serves of {} requests; set-up repeated {} times",
        d.reps.len(),
        w.n_requests,
        d.stages.len()
    ));
    let met = r
        .latencies_ns
        .iter()
        .zip(&d.failed_mask)
        .filter(|(l, failed)| !**failed && **l <= w.latency_limit_ns)
        .count();
    let mut end_to_end = vec![
        m("setup_s", stats::median(&setup), "s"),
        m("host_req_per_s", stats::median(&rep_rates), "req/s"),
        m("host_peak_rss_mb", peak_rss_mb(), "MB"),
        m("sim_latency_p50_us", lat.p50 / 1e3, "us"),
        m("sim_latency_tail_us", lat.tail / 1e3, "us"),
        m("sim_throughput_req_per_us", r.throughput_per_us(), "req/us"),
        m(
            "slo_attainment",
            met as f64 / w.n_requests as f64,
            "fraction",
        ),
    ];
    if let Some(rung) = d.max_rate {
        end_to_end.push(m("sim_max_rate_req_per_us", rung.rate, "req/us"));
        notes.push(format!(
            "max rate: tail {:.3} us at {:.4} req/us against a {:.1} us limit",
            rung.tail_ns / 1e3,
            rung.rate,
            w.latency_limit_ns / 1e3
        ));
    } else if !trace {
        notes.push("no rung of the rate ladder met the latency limit".to_string());
    }
    let extra = vec![m(
        "failed_frac",
        stats::failed_frac(failed, d.attempted),
        "fraction",
    )];
    notes.push(format!(
        "failures: {} unserved, {} duplicated, {} non-finite, {} wrong of {} attempted",
        d.failures.unserved,
        d.failures.duplicated,
        d.failures.non_finite,
        d.failures.wrong,
        d.attempted
    ));
    let per_layer = if trace {
        per_layer(w, d, &mut notes)
    } else {
        Vec::new()
    };
    // A run with no passing rung has no max rate to report: fail loudly
    // rather than print a 0.
    let correct = correct && (trace || d.max_rate.is_some());
    Outcome {
        correct,
        attempted: d.attempted,
        failed,
        end_to_end,
        per_layer,
        extra,
        notes,
    }
}

fn per_layer(w: &Workload, d: &RunData, notes: &mut Vec<String>) -> Vec<Metric> {
    let t = d
        .traced
        .as_ref()
        .expect("per-layer metrics come from the traced run");
    let med = |f: &dyn Fn(&crate::workload::Stages) -> f64| -> f64 {
        stats::median(&d.stages.iter().map(f).collect::<Vec<_>>()) / 1e6
    };
    let n = t.batches.len().max(1) as f64;
    let per_batch_us = |f: &dyn Fn(&crate::trace::BatchTrace) -> f64| -> f64 {
        t.batches.iter().map(f).sum::<f64>() / n / 1e3
    };
    let mut out = vec![
        m("datasets.generate_ms", med(&|s| s.generate_ns), "ms"),
        m("forest.train_ms", med(&|s| s.train_ns), "ms"),
        m("rearrange.node_swap_ms", med(&|s| s.node_swap_ns), "ms"),
        m("rearrange.simhash_ms", med(&|s| s.simhash_ns), "ms"),
        m("rearrange.lsh_ms", med(&|s| s.lsh_ns), "ms"),
        m("format.convert_ms", med(&|s| s.convert_ns), "ms"),
        m("engine.new_ms", med(&|s| s.engine_new_ns), "ms"),
    ];

    // Host time of the request path, from the traced run.
    let (mut hits, mut misses, mut simulated) = (0u64, 0u64, 0u64);
    for b in &t.batches {
        hits += b.profile.memo_hits;
        misses += b.profile.memo_misses;
        simulated += if b.profile.memo_hits + b.profile.memo_misses > 0 {
            b.profile.memo_misses
        } else {
            b.profile.sampled_blocks
        };
    }
    let infer: Vec<f64> = t.batches.iter().map(|b| b.infer_ns).collect();
    let infer_sum: f64 = infer.iter().sum();
    let infer_summary = stats::summarize(&infer);
    notes.push(format!(
        "engine.infer_us_tail is p{} over {} batches ({} beyond it)",
        100.0 * infer_summary.tail_q,
        infer_summary.n,
        infer_summary.beyond_tail
    ));
    let cache_hits = t.batches.iter().filter(|b| b.tune_cache_hit).count();
    let serve_ns = stats::median(&d.reps.iter().map(|r| r.serve_ns).collect::<Vec<_>>());
    let untraced_ns = stats::median(
        &d.reps
            .iter()
            .map(|r| r.serve_ns + r.refresh_ns.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let serve_span = Span {
        start: 0.0,
        end: serve_ns,
    };
    out.extend([
        m(
            "perfmodel.gather_us_per_batch",
            per_batch_us(&|b| b.child_ns[0]),
            "us",
        ),
        m(
            "perfmodel.tune_us_per_batch",
            per_batch_us(&|b| if b.tune_cache_hit { 0.0 } else { b.child_ns[1] }),
            "us",
        ),
        m("tune.cache_hit_rate", cache_hits as f64 / n, "fraction"),
        m(
            "strategy.sim_us_per_batch",
            per_batch_us(&|b| b.child_ns[2]),
            "us",
        ),
        m(
            "strategy.blocks_simulated_per_batch",
            simulated as f64 / n,
            "count",
        ),
        m(
            "memo.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "fraction",
        ),
        m(
            "format.predict_us_per_batch",
            per_batch_us(&|b| b.child_ns[3]),
            "us",
        ),
        m(
            "forest.edge_observe_us_per_batch",
            per_batch_us(&|b| b.child_ns[4]),
            "us",
        ),
        m(
            "forest.refresh_ms_per_call",
            stats::mean(&t.refresh_ns) / 1e6,
            "ms",
        ),
        m("engine.infer_us_p50", infer_summary.p50 / 1e3, "us"),
        m("engine.infer_us_tail", infer_summary.tail / 1e3, "us"),
        m(
            "engine.self_us_per_batch",
            per_batch_us(&|b| b.self_ns),
            "us",
        ),
        m(
            "serving.self_ms",
            stats::self_time(
                serve_span,
                &[Span {
                    start: 0.0,
                    end: infer_sum,
                }],
            ) / 1e6,
            "ms",
        ),
    ]);

    // Telemetry exports (serve-observed only; zero elsewhere).
    for (i, name) in EXPORTS.iter().enumerate() {
        let ms = stats::median(&d.reps.iter().map(|r| r.export_ns[i]).collect::<Vec<_>>()) / 1e6;
        let mb = d
            .reps
            .first()
            .map_or(0.0, |r| r.export_bytes[i] as f64 / 1e6);
        out.push(m(format!("telemetry.{name}.export_ms"), ms, "ms"));
        out.push(m(format!("telemetry.{name}.mb"), mb, "MB"));
    }

    // The serving layer on the simulated clock: each request's form /
    // queue / execute split, rebuilt from the checked serve's batches.
    let seg_len = w.n_requests / w.segments;
    let (mut form, mut queue, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    for part in &d.parts {
        let r = &part.report;
        let ready = batch_ready_times(w, r, w.interarrival_ns, seg_len);
        let mut first = 0usize;
        for (b, ready_at) in r.batches.iter().zip(ready) {
            for i in first..first + b.size {
                let arrival = i as f64 * w.interarrival_ns;
                let f = (ready_at - arrival).max(0.0);
                form.push(f);
                queue.push((b.dispatched_at_ns - arrival) - f);
                exec.push(b.gpu_ns);
            }
            first += b.size;
        }
    }
    let r = &d.served.report;
    let queue_summary = stats::summarize(&queue);
    out.extend([
        m("serving.form_us_mean", stats::mean(&form) / 1e3, "us"),
        m("serving.queue_us_mean", stats::mean(&queue) / 1e3, "us"),
        m("serving.queue_us_tail", queue_summary.tail / 1e3, "us"),
        m("serving.execute_us_mean", stats::mean(&exec) / 1e3, "us"),
        m("serving.batch_size_mean", r.mean_batch_size(), "requests"),
        m("serving.batches", r.batches.len() as f64, "count"),
    ]);

    // The simulated kernel, from each replayed launch's KernelProfile.
    let profiles: Vec<_> = t.batches.iter().map(|b| &b.profile).collect();
    let total: f64 = profiles.iter().map(|p| p.total_ns).sum();
    let share = |f: &dyn Fn(&tahoe::profile::KernelProfile) -> f64| -> f64 {
        if total > 0.0 {
            profiles.iter().map(|p| f(p)).sum::<f64>() / total
        } else {
            0.0
        }
    };
    let requested: f64 = profiles.iter().map(|p| p.gmem_requested_bytes as f64).sum();
    let fetched: f64 = profiles.iter().map(|p| p.gmem_fetched_bytes as f64).sum();
    let mean_of = |f: &dyn Fn(&tahoe::profile::KernelProfile) -> f64| -> f64 {
        profiles.iter().map(|p| f(p)).sum::<f64>() / n
    };
    out.extend([
        m(
            "kernel.sim_us_mean",
            stats::mean(&r.batches.iter().map(|b| b.gpu_ns).collect::<Vec<_>>()) / 1e3,
            "us",
        ),
        m(
            "kernel.traversal_share",
            share(&|p| p.breakdown.traversal_ns),
            "fraction",
        ),
        m(
            "kernel.staging_share",
            share(&|p| p.breakdown.staging_ns),
            "fraction",
        ),
        m(
            "kernel.block_reduction_share",
            share(&|p| p.breakdown.block_reduction_ns),
            "fraction",
        ),
        m(
            "kernel.global_reduction_share",
            share(&|p| p.breakdown.global_reduction_ns),
            "fraction",
        ),
        m(
            "kernel.bandwidth_stall_share",
            share(&|p| p.breakdown.bandwidth_stall_ns),
            "fraction",
        ),
        m(
            "kernel.gmem_coalescing",
            if fetched > 0.0 {
                requested / fetched
            } else {
                1.0
            },
            "fraction",
        ),
        m(
            "kernel.gmem_txn_per_batch",
            mean_of(&|p| p.gmem_transactions as f64),
            "count",
        ),
        m(
            "kernel.warp_efficiency",
            mean_of(&|p| p.warp_exec_efficiency),
            "fraction",
        ),
        m(
            "kernel.occupancy",
            mean_of(&|p| p.achieved_occupancy),
            "fraction",
        ),
        m(
            "perfmodel.abs_rel_error_mean",
            stats::mean(
                &t.batches
                    .iter()
                    .map(|b| b.abs_rel_error)
                    .collect::<Vec<_>>(),
            ),
            "fraction",
        ),
    ]);
    for s in Strategy::ALL {
        let count = t.batches.iter().filter(|b| b.strategy == s).count();
        out.push(m(
            format!("perfmodel.strategy_share.{}", strategy_id(s)),
            count as f64 / n,
            "fraction",
        ));
    }
    out.extend([
        m(
            "memory.high_water_mb",
            r.mem_high_water_bytes as f64 / 1e6,
            "MB",
        ),
        m("memory.chunk_splits", r.split_batches() as f64, "count"),
        m(
            "cluster.busy_imbalance",
            stats::imbalance(&d.served.busy_ns),
            "fraction",
        ),
        m(
            "trace.overhead_frac",
            t.wall_ns / untraced_ns - 1.0,
            "fraction",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use tahoe::engine::{Engine, EngineOptions};
    use tahoe::serving::{BatchingPolicy, ServingSim};
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_gpu_sim::device::DeviceSpec;

    /// The rebuilt form / queue / execute split must add up to the
    /// latencies the serving simulator reports, on a trace that queues.
    #[test]
    fn rebuilt_request_split_matches_reported_latency() {
        let spec = DatasetSpec::by_name("letter").unwrap();
        let (train, infer) = spec.generate(Scale::Smoke).split_train_infer();
        let forest = tahoe_forest::train_for_spec(&spec, &train, Scale::Smoke);
        let mut w = workload::by_name("serve-latency").unwrap();
        w.policy = BatchingPolicy::new(16, 2_000.0);
        w.interarrival_ns = 50.0;
        let n = 300;
        let mut engine = Engine::new(DeviceSpec::tesla_p100(), forest, EngineOptions::tahoe());
        let r = ServingSim::new(&mut engine, w.policy).run_uniform_trace(&infer.samples, n, 50.0);
        let ready = batch_ready_times(&w, &r, 50.0, n);
        let mut first = 0;
        let mut queued = false;
        for (b, ready_at) in r.batches.iter().zip(ready) {
            queued |= b.dispatched_at_ns > ready_at;
            for i in first..first + b.size {
                let arrival = i as f64 * 50.0;
                let form = (ready_at - arrival).max(0.0);
                let queue = (b.dispatched_at_ns - arrival) - form;
                assert!(queue >= 0.0);
                assert_eq!(form + queue + b.gpu_ns, r.latencies_ns[i], "request {i}");
            }
            first += b.size;
        }
        assert_eq!(first, n);
        assert!(queued, "the trace should exercise queueing");
    }
}
