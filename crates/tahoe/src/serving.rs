//! Online-serving simulation over the engine.
//!
//! The paper's motivation (§1) is high-throughput serving — "Facebook uses
//! high-throughput tree inference engines on GPU to decide which
//! notifications to send to billions of users". Production servers do not
//! see one giant batch: requests arrive as a stream and a *batching policy*
//! trades latency for throughput, which is exactly the regime where Tahoe's
//! per-batch strategy selection matters (Fig. 6's crossovers).
//!
//! [`ServingSim`] replays a request trace against an [`Engine`] on a
//! simulated clock: requests queue until the batch fills or the oldest
//! request times out, the batch runs on the simulated GPU, and per-request
//! latency statistics accumulate. Everything is deterministic.
//!
//! There is one serving loop. [`ServingSim`] is its one-engine case and
//! [`ClusterServingSim`] its N-engine case (earliest-free device wins each
//! batch). The loop computes every request's arrival time once per trace
//! and finds which requests have arrived by a dispatch instant with a
//! binary search over those times.

use std::sync::OnceLock;

use tahoe_datasets::SampleMatrix;

use crate::cluster::GpuCluster;
use crate::engine::Engine;
use crate::strategy::Strategy;
use crate::telemetry::decision::RequestPathRecord;
use crate::telemetry::{timeseries, Counter, TelemetrySink, PID_SERVING};

/// Dynamic-batching policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchingPolicy {
    /// Dispatch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Dispatch when the oldest queued request has waited this long (ns).
    pub max_delay_ns: f64,
}

impl BatchingPolicy {
    /// A validated policy.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch == 0` (the dispatch arithmetic computes
    /// `first + max_batch - 1` and a zero-capacity batch can never fill) or
    /// when `max_delay_ns` is negative or non-finite (the deadline
    /// `first_arrival + max_delay_ns` would poison every dispatch instant).
    #[must_use]
    pub fn new(max_batch: usize, max_delay_ns: f64) -> Self {
        let policy = Self { max_batch, max_delay_ns };
        policy.validate();
        policy
    }

    /// Asserts the invariants of [`BatchingPolicy::new`] — re-checked at the
    /// top of every trace replay so struct-literal policies are caught too.
    ///
    /// # Panics
    ///
    /// See [`BatchingPolicy::new`].
    pub fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be at least 1");
        assert!(
            self.max_delay_ns.is_finite() && self.max_delay_ns >= 0.0,
            "max_delay_ns must be finite and non-negative, got {}",
            self.max_delay_ns
        );
    }

    /// A latency-oriented policy (small batches, tight deadline).
    #[must_use]
    pub fn low_latency() -> Self {
        Self {
            max_batch: 64,
            max_delay_ns: 200_000.0,
        }
    }

    /// A throughput-oriented policy (large batches, loose deadline).
    #[must_use]
    pub fn high_throughput() -> Self {
        Self {
            max_batch: 8_192,
            max_delay_ns: 5_000_000.0,
        }
    }
}

/// One dispatched batch's record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchRecord {
    /// Requests served.
    pub size: usize,
    /// Simulated dispatch time (ns since trace start).
    pub dispatched_at_ns: f64,
    /// Simulated GPU time of the batch (ns).
    pub gpu_ns: f64,
    /// Strategy the engine selected.
    pub strategy: Strategy,
    /// Sequential chunks the batch was split into to fit device DRAM
    /// (1 = ran unsplit).
    pub chunks: usize,
    /// Simulated device memory live after the batch (bytes).
    pub mem_in_use_bytes: u64,
}

/// Aggregate serving statistics.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Per-batch records, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Per-request latencies (queueing + inference), ns.
    pub latencies_ns: Vec<f64>,
    /// Simulated end-to-end makespan (ns).
    pub makespan_ns: f64,
    /// High-water simulated device-memory footprint over the trace (bytes).
    pub mem_high_water_bytes: u64,
    /// Per-request latency deadline the trace was replayed with (`None`
    /// when the caller did not tag requests with an SLO).
    pub deadline_ns: Option<f64>,
    /// Lazily sorted copy of `latencies_ns` backing the percentile queries
    /// (sorted once on first use instead of on every call). Mutating
    /// `latencies_ns` after a percentile query would go unnoticed — build a
    /// fresh report instead.
    sorted_latencies: OnceLock<Vec<f64>>,
}

impl ServingReport {
    /// Assembles a report from a replayed trace.
    #[must_use]
    pub fn new(
        batches: Vec<BatchRecord>,
        latencies_ns: Vec<f64>,
        makespan_ns: f64,
        mem_high_water_bytes: u64,
    ) -> Self {
        Self {
            batches,
            latencies_ns,
            makespan_ns,
            mem_high_water_bytes,
            deadline_ns: None,
            sorted_latencies: OnceLock::new(),
        }
    }

    /// Tags the report with the deadline its trace was replayed under,
    /// enabling [`ServingReport::slo_attainment`].
    #[must_use]
    pub fn with_deadline(mut self, deadline_ns: Option<f64>) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }

    /// Fraction of requests that met the deadline (`None` when the trace
    /// was replayed without one; 1.0 for an empty trace).
    #[must_use]
    pub fn slo_attainment(&self) -> Option<f64> {
        let deadline = self.deadline_ns?;
        if self.latencies_ns.is_empty() {
            return Some(1.0);
        }
        let met = self.latencies_ns.iter().filter(|&&l| l <= deadline).count();
        Some(met as f64 / self.latencies_ns.len() as f64)
    }

    /// Requests served.
    #[must_use]
    pub fn n_requests(&self) -> usize {
        self.latencies_ns.len()
    }

    /// Mean request latency (ns).
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().sum::<f64>() / self.latencies_ns.len() as f64
    }

    /// Latency percentile in `[0, 1]` (ns).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_percentile_ns(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile out of range");
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted_latencies.get_or_init(|| {
            let mut sorted = self.latencies_ns.clone();
            // `total_cmp` keeps the sort total if a latency ever goes
            // non-finite: NaN sorts last and report generation survives.
            sorted.sort_by(f64::total_cmp);
            sorted
        });
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// Sustained throughput over the makespan (requests per µs).
    #[must_use]
    pub fn throughput_per_us(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            return 0.0;
        }
        self.n_requests() as f64 / (self.makespan_ns / 1_000.0)
    }

    /// Batches that had to be chunk-split to fit device DRAM.
    #[must_use]
    pub fn split_batches(&self) -> usize {
        self.batches.iter().filter(|b| b.chunks > 1).count()
    }

    /// Mean dispatched batch size.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.size as f64).sum::<f64>() / self.batches.len() as f64
    }
}

/// Emits one dispatched batch's serving spans (formation, optional queue
/// wait, execution) into `sink`.
fn batch_spans(
    sink: &TelemetrySink,
    idx: usize,
    record: &BatchRecord,
    first_arrival: f64,
    ready_at: f64,
) {
    if !sink.is_enabled() {
        return;
    }
    let size = record.size;
    let dispatch_at = record.dispatched_at_ns;
    sink.span(
        format!("batch {idx}: form ({size} requests)"),
        PID_SERVING,
        0,
        first_arrival,
        ready_at - first_arrival,
    );
    if dispatch_at > ready_at {
        sink.span(
            format!("batch {idx}: queue wait (GPU busy)"),
            PID_SERVING,
            1,
            ready_at,
            dispatch_at - ready_at,
        );
    }
    sink.span(
        format!("batch {idx}: execute ({})", record.strategy.name()),
        PID_SERVING,
        2,
        dispatch_at,
        record.gpu_ns,
    );
}

/// Emits one dispatched batch's windowed time-series samples into `sink`
/// (DESIGN.md §2.14): the dispatch delta, queue-wait time past the policy's
/// ready instant, and the device's inflight gauge over the batch's
/// execution interval. Series carry the device-local index 0; the cluster
/// absorb re-tags them. Caller thread only — workers never touch the
/// sampler. Queue depth is a queue-level (not device-level) statistic, so
/// the serving loop records it separately.
fn batch_timeseries(sink: &TelemetrySink, record: &BatchRecord, ready_at: f64) {
    if !sink.is_enabled() {
        return;
    }
    let dispatch_at = record.dispatched_at_ns;
    sink.ts_add(0, timeseries::DISPATCHED_BATCHES, dispatch_at, 1.0);
    sink.ts_add(0, timeseries::QUEUE_WAIT_NS, dispatch_at, dispatch_at - ready_at);
    sink.ts_gauge(0, timeseries::INFLIGHT_BATCHES, dispatch_at, 1.0);
    sink.ts_gauge(0, timeseries::INFLIGHT_BATCHES, dispatch_at + record.gpu_ns, 0.0);
}

/// Records one batch's per-request latency windows (and, with a deadline,
/// SLO outcomes) into `sink`, keyed by the requests' shared completion time.
fn request_windows(
    sink: &TelemetrySink,
    latencies: &[f64],
    finished_at: f64,
    deadline_ns: Option<f64>,
) {
    if !sink.is_enabled() {
        return;
    }
    for &lat in latencies {
        sink.record_latency_window(finished_at, lat);
        if let Some(deadline) = deadline_ns {
            sink.record_slo_window(finished_at, lat <= deadline);
        }
    }
}

/// The serving loop: one batching queue feeding `engines`.
///
/// Request `i` arrives at `arrivals[i] = i × interarrival_ns`. A batch is
/// ready once `max_batch` requests have arrived or its oldest request hits
/// the policy deadline (never before that request arrives). Each ready
/// batch goes to the engine that frees up earliest, lowest index winning
/// ties, and carries everything that has arrived by its dispatch instant,
/// capped at `max_batch`. [`ServingSim`] is the one-engine case and
/// [`ClusterServingSim`] the N-engine case of this one loop.
///
/// Per-device telemetry (serving counters, batch spans, batch time series)
/// lands in the executing engine's own sink. Queue-level telemetry (queue
/// depth, request paths, latency and SLO windows, the serving-latency
/// histogram) lands in `queue_sink`; for a bare engine that is the same
/// sink. Returns the report and the engine index that ran each batch.
fn replay(
    engines: &mut [Engine],
    queue_sink: &TelemetrySink,
    policy: &BatchingPolicy,
    samples: &SampleMatrix,
    n_requests: usize,
    interarrival_ns: f64,
    deadline_ns: Option<f64>,
) -> (ServingReport, Vec<usize>) {
    assert!(samples.n_samples() > 0, "need request payloads");
    assert!(n_requests > 0, "need at least one request");
    policy.validate();
    assert!(
        interarrival_ns.is_finite() && interarrival_ns >= 0.0,
        "interarrival_ns must be finite and non-negative, got {interarrival_ns}"
    );
    let n_payloads = samples.n_samples();
    for engine in engines.iter() {
        engine.telemetry().name_process(PID_SERVING, "serving");
    }
    let arrivals: Vec<f64> = (0..n_requests).map(|i| i as f64 * interarrival_ns).collect();
    let mut batches = Vec::new();
    let mut batch_devices = Vec::new();
    let mut latencies = vec![0.0f64; n_requests];
    let mut free_at = vec![0.0f64; engines.len()];
    let mut first = 0usize;
    while first < n_requests {
        let first_arrival = arrivals[first];
        let full_at = arrivals[(first + policy.max_batch - 1).min(n_requests - 1)];
        let ready_at = full_at
            .min(first_arrival + policy.max_delay_ns)
            .max(first_arrival);
        // Earliest-free device; ascending scan with strict `<` keeps the
        // lowest index on ties, so the assignment is deterministic.
        let mut dev = 0usize;
        for (i, &f) in free_at.iter().enumerate().skip(1) {
            if f < free_at[dev] {
                dev = i;
            }
        }
        // The policy is ready to dispatch at `ready_at`; an earlier batch
        // still on the device delays the actual dispatch past it.
        let dispatch_at = ready_at.max(free_at[dev]);
        // `dispatch_at >= arrivals[first]`, so at least `first` has arrived.
        let last_arrived = arrivals.partition_point(|&a| a <= dispatch_at) - 1;
        let last = (last_arrived + 1).min(first + policy.max_batch);
        let size = last - first;
        let rows: Vec<usize> = (first..last).map(|r| r % n_payloads).collect();
        let batch = samples.select(&rows);
        // Pin the engine's simulated clock to the dispatch instant so the
        // batch's kernel/engine spans land where the batch actually ran.
        let engine = &mut engines[dev];
        engine.set_sim_clock_ns(dispatch_at);
        let result = engine.infer(&batch);
        let gpu_ns = result.run.kernel.total_ns;
        let finished_at = dispatch_at + gpu_ns;
        let dsink = engine.telemetry();
        dsink.add(Counter::ServingBatches, 1);
        dsink.add(Counter::ServingRequests, size as u64);
        let record = BatchRecord {
            size,
            dispatched_at_ns: dispatch_at,
            gpu_ns,
            strategy: result.strategy,
            chunks: result.chunks,
            mem_in_use_bytes: result.mem_in_use_bytes,
        };
        batch_spans(dsink, batches.len(), &record, first_arrival, ready_at);
        batch_timeseries(dsink, &record, ready_at);
        queue_sink.ts_gauge(
            0,
            timeseries::QUEUE_DEPTH,
            dispatch_at,
            (last_arrived + 1 - last) as f64,
        );
        // Each latency is *constructed* as the left-to-right sum
        // `form + queue + execute` rather than `finished_at − arrival`, so
        // the critical-path components sum to it bitwise in the
        // flight-recorder export (DESIGN.md §2.15). Each component is
        // non-negative: `dispatch_at ≥ ready_at` and rounding is monotone,
        // so `fl(dispatch − arrival) ≥ form`.
        let reduction_ns =
            result.run.kernel.block_reduction_wall_ns + result.run.kernel.global_reduction_ns;
        let waiting = latencies[first..last].iter_mut().zip(&arrivals[first..last]);
        for (i, (lat, &arrival)) in (first..).zip(waiting) {
            let form = (ready_at - arrival).max(0.0);
            let queue = (dispatch_at - arrival) - form;
            let total = form + queue + gpu_ns;
            *lat = total;
            if queue_sink.is_enabled() {
                queue_sink.push_request_path(RequestPathRecord {
                    request: i as u64,
                    batch: batches.len() as u64,
                    device: dev as u32,
                    arrival_ns: arrival,
                    form_ns: form,
                    queue_ns: queue,
                    execute_ns: gpu_ns,
                    reduction_ns,
                    total_ns: total,
                });
            }
        }
        request_windows(queue_sink, &latencies[first..last], finished_at, deadline_ns);
        batches.push(record);
        batch_devices.push(dev);
        free_at[dev] = finished_at;
        first = last;
    }
    // Request latencies feed the profiler's serving histogram; recorded
    // once from this (caller) thread, so the export stays deterministic.
    if queue_sink.is_enabled() {
        queue_sink.record_serving_latencies(&latencies);
    }
    let makespan_ns = free_at.iter().copied().fold(0.0f64, f64::max);
    let mem_high_water_bytes = engines.iter().map(|e| e.memory().high_water_bytes()).sum();
    let report = ServingReport::new(batches, latencies, makespan_ns, mem_high_water_bytes)
        .with_deadline(deadline_ns);
    (report, batch_devices)
}

/// Serving simulator: a request trace, a policy, and an engine.
pub struct ServingSim<'e> {
    engine: &'e mut Engine,
    policy: BatchingPolicy,
}

impl<'e> ServingSim<'e> {
    /// Wraps an engine with a batching policy.
    pub fn new(engine: &'e mut Engine, policy: BatchingPolicy) -> Self {
        Self { engine, policy }
    }

    /// Replays a trace of requests arriving at a constant rate.
    ///
    /// `samples` supplies the request payloads (row `i % n` serves request
    /// `i`); `n_requests` requests arrive `interarrival_ns` apart. The GPU
    /// serves batches one at a time (single simulated stream).
    ///
    /// # Panics
    ///
    /// Panics if the sample matrix is empty, `n_requests == 0`, the policy
    /// fails validation, or `interarrival_ns` is negative or non-finite.
    #[must_use]
    pub fn run_uniform_trace(
        &mut self,
        samples: &SampleMatrix,
        n_requests: usize,
        interarrival_ns: f64,
    ) -> ServingReport {
        self.run_uniform_trace_with_deadline(samples, n_requests, interarrival_ns, None)
    }

    /// [`ServingSim::run_uniform_trace`] with every request tagged with a
    /// latency deadline: the report gains [`ServingReport::slo_attainment`]
    /// and the time-series export gains per-window SLO windows. The replay
    /// arithmetic is identical — a deadline only adds observability.
    ///
    /// # Panics
    ///
    /// As [`ServingSim::run_uniform_trace`].
    #[must_use]
    pub fn run_uniform_trace_with_deadline(
        &mut self,
        samples: &SampleMatrix,
        n_requests: usize,
        interarrival_ns: f64,
        deadline_ns: Option<f64>,
    ) -> ServingReport {
        let sink = self.engine.telemetry().clone();
        replay(
            std::slice::from_mut(self.engine),
            &sink,
            &self.policy,
            samples,
            n_requests,
            interarrival_ns,
            deadline_ns,
        )
        .0
    }
}

/// One device's aggregate share of a cluster serving trace.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceServingStats {
    /// Device index within the cluster.
    pub device: usize,
    /// Device model name.
    pub device_name: String,
    /// Batches this device executed.
    pub batches: usize,
    /// Requests this device served.
    pub requests: usize,
    /// Total simulated GPU time on this device (ns).
    pub busy_ns: f64,
    /// High-water simulated device-memory footprint (bytes).
    pub mem_high_water_bytes: u64,
}

/// A [`ServingReport`] plus the per-device view of a cluster trace.
#[derive(Clone, Debug)]
pub struct ClusterServingReport {
    /// Cluster-wide statistics, shaped exactly like the single-engine
    /// report (1-device clusters reproduce it bit-for-bit). The memory
    /// high water is summed across devices.
    pub report: ServingReport,
    /// Device that executed batch `i` (parallel to `report.batches`).
    pub batch_devices: Vec<usize>,
    /// Per-device aggregates, one entry per cluster device (devices that
    /// never ran a batch report zeros).
    pub per_device: Vec<DeviceServingStats>,
}

/// Multi-GPU serving: one batching queue feeding N device engines.
///
/// Runs the same serving loop as [`ServingSim`]; each ready batch is
/// dispatched to the device that frees up earliest, with the lowest index
/// winning ties — a deterministic rule, so the device assignment is a pure
/// function of the trace. Devices execute batches concurrently on the
/// simulated timeline (each tracks its own `free_at` clock) while the
/// simulation itself stays sequential on the caller thread.
pub struct ClusterServingSim<'c> {
    cluster: &'c mut GpuCluster,
    policy: BatchingPolicy,
}

impl<'c> ClusterServingSim<'c> {
    /// Wraps a cluster with a batching policy.
    pub fn new(cluster: &'c mut GpuCluster, policy: BatchingPolicy) -> Self {
        Self { cluster, policy }
    }

    /// Replays a constant-rate request trace across the cluster (the
    /// multi-GPU analogue of [`ServingSim::run_uniform_trace`]).
    ///
    /// Telemetry for each batch lands in the executing device's private
    /// sink; the cluster's telemetry is flushed (device-index order) before
    /// returning, so the caller can export immediately.
    ///
    /// # Panics
    ///
    /// As [`ServingSim::run_uniform_trace`].
    #[must_use]
    pub fn run_uniform_trace(
        &mut self,
        samples: &SampleMatrix,
        n_requests: usize,
        interarrival_ns: f64,
    ) -> ClusterServingReport {
        self.run_uniform_trace_with_deadline(samples, n_requests, interarrival_ns, None)
    }

    /// [`ClusterServingSim::run_uniform_trace`] with every request tagged
    /// with a latency deadline (the cluster analogue of
    /// [`ServingSim::run_uniform_trace_with_deadline`]). Latency and SLO
    /// windows are cluster-level statistics recorded into the cluster sink;
    /// per-device series land in each device's private sink and are
    /// absorbed in device-index order by the flush.
    ///
    /// # Panics
    ///
    /// As [`ServingSim::run_uniform_trace`].
    #[must_use]
    pub fn run_uniform_trace_with_deadline(
        &mut self,
        samples: &SampleMatrix,
        n_requests: usize,
        interarrival_ns: f64,
        deadline_ns: Option<f64>,
    ) -> ClusterServingReport {
        let sink = self.cluster.telemetry().clone();
        let (report, batch_devices) = replay(
            self.cluster.engines_mut(),
            &sink,
            &self.policy,
            samples,
            n_requests,
            interarrival_ns,
            deadline_ns,
        );
        self.cluster.flush_telemetry();
        let per_device = (0..self.cluster.n_devices())
            .map(|d| {
                let engine = self.cluster.engine(d);
                let ran: Vec<&BatchRecord> = report
                    .batches
                    .iter()
                    .zip(&batch_devices)
                    .filter_map(|(b, &bd)| (bd == d).then_some(b))
                    .collect();
                DeviceServingStats {
                    device: d,
                    device_name: engine.device().name.to_string(),
                    batches: ran.len(),
                    requests: ran.iter().map(|b| b.size).sum(),
                    // Folded from +0.0 in dispatch order: an idle device
                    // reports 0, where a float `sum` would start at -0.0.
                    busy_ns: ran.iter().fold(0.0, |busy, b| busy + b.gpu_ns),
                    mem_high_water_bytes: engine.memory().high_water_bytes(),
                }
            })
            .collect();
        ClusterServingReport { report, batch_devices, per_device }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_forest::train_for_spec;
    use tahoe_gpu_sim::device::DeviceSpec;

    fn engine() -> (Engine, SampleMatrix) {
        let spec = DatasetSpec::by_name("letter").unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        let options = EngineOptions {
            functional: false,
            ..EngineOptions::tahoe()
        };
        (
            Engine::new(DeviceSpec::tesla_p100(), forest, options),
            infer.samples,
        )
    }

    #[test]
    fn percentiles_survive_an_injected_nan_latency() {
        // One poisoned latency must not take down report generation: NaN
        // sorts last under `total_cmp`, so every percentile below the tail
        // still answers from the finite values.
        let report = ServingReport::new(
            Vec::new(),
            vec![300.0, f64::NAN, 100.0, 200.0],
            1_000.0,
            0,
        );
        assert_eq!(report.latency_percentile_ns(0.0), 100.0);
        assert_eq!(report.latency_percentile_ns(1.0 / 3.0), 200.0);
        assert_eq!(report.latency_percentile_ns(2.0 / 3.0), 300.0);
        assert!(report.latency_percentile_ns(1.0).is_nan(), "NaN sorts last");
        assert_eq!(report.n_requests(), 4);
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let (mut e, samples) = engine();
        let mut sim = ServingSim::new(&mut e, BatchingPolicy::low_latency());
        let report = sim.run_uniform_trace(&samples, 500, 1_000.0);
        assert_eq!(report.n_requests(), 500);
        let served: usize = report.batches.iter().map(|b| b.size).sum();
        assert_eq!(served, 500);
        assert!(report.latencies_ns.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn batch_sizes_respect_the_policy() {
        let (mut e, samples) = engine();
        let policy = BatchingPolicy {
            max_batch: 32,
            max_delay_ns: 1e12,
        };
        let mut sim = ServingSim::new(&mut e, policy);
        let report = sim.run_uniform_trace(&samples, 200, 100.0);
        for b in &report.batches {
            assert!(b.size <= 32);
        }
    }

    #[test]
    fn deadline_bounds_queueing_latency_under_light_load() {
        let (mut e, samples) = engine();
        let policy = BatchingPolicy {
            max_batch: 100_000,
            max_delay_ns: 50_000.0,
        };
        let mut sim = ServingSim::new(&mut e, policy);
        // Slow arrivals: the deadline, not the batch size, dispatches.
        let report = sim.run_uniform_trace(&samples, 100, 10_000.0);
        let gpu_max = report
            .batches
            .iter()
            .map(|b| b.gpu_ns)
            .fold(0.0f64, f64::max);
        let p100 = report.latency_percentile_ns(1.0);
        assert!(
            p100 <= 50_000.0 + gpu_max * 2.0 + 10_000.0,
            "tail latency {p100} not bounded by deadline + service"
        );
    }

    #[test]
    fn throughput_policy_builds_bigger_batches_than_latency_policy() {
        let (mut e, samples) = engine();
        let fast_arrivals = 50.0;
        let lat = ServingSim::new(&mut e, BatchingPolicy::low_latency())
            .run_uniform_trace(&samples, 2_000, fast_arrivals);
        let thr = ServingSim::new(&mut e, BatchingPolicy::high_throughput())
            .run_uniform_trace(&samples, 2_000, fast_arrivals);
        assert!(thr.mean_batch_size() > lat.mean_batch_size());
        // Larger batches amortize better: fewer dispatches.
        assert!(thr.batches.len() < lat.batches.len());
    }

    #[test]
    fn arrival_counting_is_robust_on_float_boundaries() {
        // With max_batch == n_requests and a loose deadline, the dispatch
        // instant is the last request's exact arrival time. Naive float
        // division undercounts on some interarrivals (e.g. 7 × 0.7 / 0.7
        // floors to 6) and would split the trace into two batches.
        let (mut e, samples) = engine();
        for &ia in &[0.1, 0.3, 0.7, 1.0, 333.3] {
            let policy = BatchingPolicy {
                max_batch: 8,
                max_delay_ns: 1e12,
            };
            let mut sim = ServingSim::new(&mut e, policy);
            let report = sim.run_uniform_trace(&samples, 8, ia);
            assert_eq!(report.batches.len(), 1, "interarrival {ia} split the batch");
            assert_eq!(report.batches[0].size, 8);
        }
    }

    #[test]
    fn serving_reports_memory_footprint() {
        let (mut e, samples) = engine();
        let mut sim = ServingSim::new(&mut e, BatchingPolicy::low_latency());
        let report = sim.run_uniform_trace(&samples, 300, 500.0);
        assert!(report.mem_high_water_bytes > 0);
        assert_eq!(report.split_batches(), 0, "smoke batches fit DRAM unsplit");
        for b in &report.batches {
            assert_eq!(b.chunks, 1);
            assert!(b.mem_in_use_bytes > 0);
        }
    }

    #[test]
    fn percentile_edges_and_empty_report() {
        let empty = ServingReport::new(Vec::new(), Vec::new(), 0.0, 0);
        assert_eq!(empty.latency_percentile_ns(0.0), 0.0);
        assert_eq!(empty.latency_percentile_ns(1.0), 0.0);
        let r = ServingReport::new(Vec::new(), vec![30.0, 10.0, 20.0], 1.0, 0);
        assert_eq!(r.latency_percentile_ns(0.0), 10.0);
        assert_eq!(r.latency_percentile_ns(0.5), 20.0);
        assert_eq!(r.latency_percentile_ns(1.0), 30.0);
        // The cached sort answers repeat queries consistently.
        assert_eq!(r.latency_percentile_ns(1.0), 30.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let r = ServingReport::new(Vec::new(), vec![1.0], 1.0, 0);
        let _ = r.latency_percentile_ns(1.5);
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn zero_max_batch_is_rejected() {
        let _ = BatchingPolicy::new(0, 1_000.0);
    }

    #[test]
    #[should_panic(expected = "max_delay_ns must be finite and non-negative")]
    fn negative_delay_is_rejected() {
        let _ = BatchingPolicy::new(64, -1.0);
    }

    #[test]
    #[should_panic(expected = "max_delay_ns must be finite and non-negative")]
    fn non_finite_delay_is_rejected() {
        let _ = BatchingPolicy::new(64, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn struct_literal_zero_policy_is_caught_at_run() {
        // The underflow this guards: `first + max_batch - 1` with
        // max_batch == 0 wrapped before the validation existed.
        let (mut e, samples) = engine();
        let policy = BatchingPolicy { max_batch: 0, max_delay_ns: 1_000.0 };
        let mut sim = ServingSim::new(&mut e, policy);
        let _ = sim.run_uniform_trace(&samples, 10, 100.0);
    }

    #[test]
    #[should_panic(expected = "interarrival_ns must be finite and non-negative")]
    fn negative_interarrival_is_rejected() {
        // A negative gap would serve requests that "arrived" before t = 0.
        let (mut e, samples) = engine();
        let mut sim = ServingSim::new(&mut e, BatchingPolicy::low_latency());
        let _ = sim.run_uniform_trace(&samples, 10, -1.0);
    }

    #[test]
    #[should_panic(expected = "interarrival_ns must be finite and non-negative")]
    fn non_finite_interarrival_is_rejected() {
        let (mut c, samples) = cluster(2);
        let mut sim = ClusterServingSim::new(&mut c, BatchingPolicy::low_latency());
        let _ = sim.run_uniform_trace(&samples, 10, f64::NAN);
    }

    #[test]
    fn simultaneous_arrivals_fill_every_batch_but_the_last() {
        // interarrival 0: every request arrives at t = 0, so each dispatch
        // finds the whole remaining trace waiting and takes max_batch.
        let (mut e, samples) = engine();
        let mut sim = ServingSim::new(&mut e, BatchingPolicy::new(32, 1_000.0));
        let report = sim.run_uniform_trace(&samples, 200, 0.0);
        let sizes: Vec<usize> = report.batches.iter().map(|b| b.size).collect();
        assert_eq!(sizes.len(), 7);
        assert!(sizes[..6].iter().all(|&s| s == 32), "full batches: {sizes:?}");
        assert_eq!(sizes[6], 200 - 6 * 32);
        assert_eq!(report.n_requests(), 200);
        assert_eq!(sizes.iter().sum::<usize>(), 200);
        assert!(report.latencies_ns.iter().all(|&l| l.is_finite() && l > 0.0));
        assert_eq!(report.batches[0].dispatched_at_ns, 0.0);
    }

    #[test]
    fn validated_constructor_accepts_sane_policies() {
        let p = BatchingPolicy::new(64, 0.0);
        assert_eq!(p.max_batch, 64);
        assert_eq!(p.max_delay_ns, 0.0);
    }

    fn cluster(n: usize) -> (crate::cluster::GpuCluster, SampleMatrix) {
        use tahoe_gpu_sim::device::DeviceSpec;
        let spec = DatasetSpec::by_name("letter").unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        let options = EngineOptions {
            functional: false,
            ..EngineOptions::tahoe()
        };
        (
            crate::cluster::GpuCluster::homogeneous(
                &DeviceSpec::tesla_p100(),
                n,
                &forest,
                options,
            ),
            infer.samples,
        )
    }

    #[test]
    fn cluster_serving_conserves_requests() {
        let (mut c, samples) = cluster(3);
        let mut sim = ClusterServingSim::new(&mut c, BatchingPolicy::low_latency());
        let report = sim.run_uniform_trace(&samples, 500, 1_000.0);
        assert_eq!(report.report.n_requests(), 500);
        let served: usize = report.report.batches.iter().map(|b| b.size).sum();
        assert_eq!(served, 500);
        let per_device: usize = report.per_device.iter().map(|d| d.requests).sum();
        assert_eq!(per_device, 500);
        assert_eq!(report.batch_devices.len(), report.report.batches.len());
        for (b, &d) in report.report.batches.iter().zip(&report.batch_devices) {
            assert!(d < 3, "batch on unknown device");
            assert!(b.size > 0);
        }
    }

    #[test]
    fn saturated_cluster_spreads_batches_across_devices() {
        let (mut c, samples) = cluster(3);
        // Arrivals far faster than the GPU: every device stays busy, so the
        // earliest-free rule must rotate through all of them — and the first
        // three batches land on devices 0, 1, 2 in order (all free at t=0,
        // lowest index wins).
        let policy = BatchingPolicy::new(32, 1e9);
        let mut sim = ClusterServingSim::new(&mut c, policy);
        let report = sim.run_uniform_trace(&samples, 2_000, 10.0);
        assert!(report.batch_devices.len() >= 3);
        assert_eq!(&report.batch_devices[..3], &[0, 1, 2]);
        for d in &report.per_device {
            assert!(d.batches > 0, "device {} never used", d.device);
            assert!(d.busy_ns > 0.0);
        }
        // Makespan is the slowest device's finish line.
        let busiest_finish = report
            .report
            .batches
            .iter()
            .map(|b| b.dispatched_at_ns + b.gpu_ns)
            .fold(0.0f64, f64::max);
        assert_eq!(report.report.makespan_ns.to_bits(), busiest_finish.to_bits());
    }

    #[test]
    fn serving_telemetry_counts_requests_and_batches() {
        use crate::telemetry::TelemetrySink;
        let spec = DatasetSpec::by_name("letter").unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        let options = EngineOptions {
            functional: false,
            ..EngineOptions::tahoe()
        };
        let sink = TelemetrySink::recording();
        let mut e =
            Engine::with_telemetry(DeviceSpec::tesla_p100(), forest, options, sink.clone());
        let mut sim = ServingSim::new(&mut e, BatchingPolicy::low_latency());
        let report = sim.run_uniform_trace(&infer.samples, 100, 1_000.0);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["serving_requests"], 100);
        assert_eq!(snap.counters["serving_batches"], report.batches.len() as u64);
        assert_eq!(snap.counters["engine_batches"], report.batches.len() as u64);
        assert!(snap.counters["kernel_launches"] >= report.batches.len() as u64);
        assert!(snap.span_count > 0, "serving must record spans");
    }

    #[test]
    fn report_statistics_are_consistent() {
        let (mut e, samples) = engine();
        let mut sim = ServingSim::new(&mut e, BatchingPolicy::low_latency());
        let report = sim.run_uniform_trace(&samples, 300, 500.0);
        let p50 = report.latency_percentile_ns(0.5);
        let p99 = report.latency_percentile_ns(0.99);
        assert!(p50 <= p99);
        assert!(report.mean_latency_ns() > 0.0);
        assert!(report.throughput_per_us() > 0.0);
        assert!(report.makespan_ns >= 300.0 * 500.0 - 500.0);
    }
}
