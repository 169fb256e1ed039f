//! Unified telemetry: span recording, typed counters, and trace export.
//!
//! The simulator computes hardware-counter-style evidence (coalescing
//! efficiency, reduction share, imbalance) in result structs, but those are
//! per-launch aggregates — there is no way to see *one request's* timeline
//! end to end. This module adds that observability substrate:
//!
//! - [`TelemetrySink`] — a cheaply cloneable handle that layers (kernel
//!   scheduler, device allocator, engine, serving simulator) record into.
//!   The [`TelemetrySink::Disabled`] variant compiles every recording call
//!   to an enum-tag check followed by nothing, so the hot simulation path
//!   pays no locks, no allocation, and no branch-heavy bookkeeping when
//!   telemetry is off.
//! - [`Counter`] / [`CounterRegistry`] — a typed registry of monotonic
//!   counters (plus two gauge-style entries maintained with `set`/`max`),
//!   stored as a fixed array so increments are a single indexed add.
//! - [`SpanEvent`] — a flat span (name, track, start, duration) in
//!   *simulated* nanoseconds; exported as Chrome trace-event JSON
//!   ([`TelemetrySink::chrome_trace_json`]) loadable in Perfetto /
//!   `chrome://tracing`, one process per layer and one track per concurrent
//!   block slot.
//! - [`MetricsSnapshot`] — a flat, serde-round-trippable snapshot of the
//!   counters for `report_md` and regression dashboards
//!   ([`TelemetrySink::metrics_json`]).
//!
//! # Determinism
//!
//! Span and counter emission for simulated work happens in
//! `KernelSim::finish`, *after* `simulate_blocks` has merged per-block
//! results in plan order — worker threads never touch the sink. Exported
//! traces and snapshots are therefore byte-identical at any
//! `TAHOE_SIM_THREADS` (pinned by `tests/determinism.rs`). Host-measured
//! engine phases (convert/rearrange/tune) are wall-clock timed and vary
//! run to run; they live on their own process track.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Chrome-trace process id for simulated-GPU spans (kernel/block/warp).
pub const PID_GPU: u32 = 1;
/// Chrome-trace process id for host-side engine spans (convert/tune/infer).
pub const PID_ENGINE: u32 = 2;
/// Chrome-trace process id for serving-simulation spans (queue/execute).
pub const PID_SERVING: u32 = 3;

/// Pid stride between cluster devices: device `d`'s layers occupy pids
/// `d * PID_DEVICE_STRIDE + {PID_GPU, PID_ENGINE, PID_SERVING}`, so device 0
/// keeps the canonical pids and every device gets its own process group in
/// the exported trace.
pub const PID_DEVICE_STRIDE: u32 = 10;

/// Chrome-trace pid of `base_pid`'s layer on cluster device `device_idx`
/// (identity for device 0).
#[must_use]
pub const fn device_pid(base_pid: u32, device_idx: usize) -> u32 {
    base_pid + PID_DEVICE_STRIDE * device_idx as u32
}

/// Typed telemetry counters.
///
/// Discriminants index [`CounterRegistry`]'s fixed array; keep them dense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Global-memory transactions issued by sampled blocks.
    GmemTransactions,
    /// Bytes the warp lanes asked for (coalesced ideal).
    GmemRequestedBytes,
    /// Bytes the memory system actually moved.
    GmemFetchedBytes,
    /// Fetched minus requested: traffic wasted on uncoalesced access.
    GmemUncoalescedBytes,
    /// Shared-memory bytes moved by sampled blocks.
    SmemBytes,
    /// Block-wide reduction operations in sampled blocks.
    BlockReductions,
    /// Device-wide segmented reductions.
    GlobalReductions,
    /// Idle lane-steps in sampled warps (divergence stalls):
    /// `steps × warp_size − active_lane_steps`.
    DivergenceStallLaneSteps,
    /// Active lane-steps in sampled warps (warp-efficiency numerator).
    WarpActiveLaneSteps,
    /// Total simulated kernel time, rounded ns (reduction-share denominator).
    KernelTimeNs,
    /// Simulated kernel time spent in block + global reductions, rounded ns.
    ReductionTimeNs,
    /// Kernel launches traced.
    KernelLaunches,
    /// Blocks simulated in detail.
    SimulatedBlocks,
    /// Successful simulated-device allocations.
    DeviceAllocs,
    /// Simulated-device frees.
    DeviceFrees,
    /// Allocation failures (simulated OOM).
    DeviceOomEvents,
    /// Gauge: aligned device bytes currently live (maintained with `set`).
    AllocInUseBytes,
    /// Gauge: high-water in-use footprint (maintained with `max`).
    AllocHighWaterBytes,
    /// Batches the engine inferred.
    EngineBatches,
    /// Batches the engine had to chunk-split to fit device DRAM.
    EngineChunkSplits,
    /// Sampled blocks that contributed to the A.C.V. statistic.
    AcvBlocksCounted,
    /// Sampled blocks skipped by the A.C.V. statistic (< 2 busy threads).
    AcvBlocksSkipped,
    /// Batches the serving simulator dispatched.
    ServingBatches,
    /// Requests the serving simulator served.
    ServingRequests,
    /// Planned blocks replayed from a launch's memo cache instead of being
    /// simulated (DESIGN.md §2.12).
    MemoHits,
    /// Planned blocks simulated in detail by the keyed path (one per
    /// distinct block fingerprint).
    MemoMisses,
    /// Approximate bytes of cached block results held by per-launch memo
    /// caches, summed over launches.
    MemoBytes,
    /// Engine batches whose tuned plan list came from the tuning-decision
    /// cache instead of a fresh `tune_all` sweep (DESIGN.md §2.16).
    TuningCacheHits,
    /// Engine batches that ran a fresh `tune_all` sweep and populated the
    /// tuning-decision cache.
    TuningCacheMisses,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 29] = [
        Counter::GmemTransactions,
        Counter::GmemRequestedBytes,
        Counter::GmemFetchedBytes,
        Counter::GmemUncoalescedBytes,
        Counter::SmemBytes,
        Counter::BlockReductions,
        Counter::GlobalReductions,
        Counter::DivergenceStallLaneSteps,
        Counter::WarpActiveLaneSteps,
        Counter::KernelTimeNs,
        Counter::ReductionTimeNs,
        Counter::KernelLaunches,
        Counter::SimulatedBlocks,
        Counter::DeviceAllocs,
        Counter::DeviceFrees,
        Counter::DeviceOomEvents,
        Counter::AllocInUseBytes,
        Counter::AllocHighWaterBytes,
        Counter::EngineBatches,
        Counter::EngineChunkSplits,
        Counter::AcvBlocksCounted,
        Counter::AcvBlocksSkipped,
        Counter::ServingBatches,
        Counter::ServingRequests,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::MemoBytes,
        Counter::TuningCacheHits,
        Counter::TuningCacheMisses,
    ];

    /// Whether this entry is a gauge (maintained with `set`/`max`) rather
    /// than a monotonic counter. Gauges are excluded from cross-sink merges:
    /// summing point-in-time snapshots double-counts, so an aggregating
    /// layer (e.g. the cluster) recomputes them from the live allocators.
    #[must_use]
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::AllocInUseBytes | Counter::AllocHighWaterBytes)
    }

    /// Snake-case name used in the metrics snapshot.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::GmemTransactions => "gmem_transactions",
            Counter::GmemRequestedBytes => "gmem_requested_bytes",
            Counter::GmemFetchedBytes => "gmem_fetched_bytes",
            Counter::GmemUncoalescedBytes => "gmem_uncoalesced_bytes",
            Counter::SmemBytes => "smem_bytes",
            Counter::BlockReductions => "block_reductions",
            Counter::GlobalReductions => "global_reductions",
            Counter::DivergenceStallLaneSteps => "divergence_stall_lane_steps",
            Counter::WarpActiveLaneSteps => "warp_active_lane_steps",
            Counter::KernelTimeNs => "kernel_time_ns",
            Counter::ReductionTimeNs => "reduction_time_ns",
            Counter::KernelLaunches => "kernel_launches",
            Counter::SimulatedBlocks => "simulated_blocks",
            Counter::DeviceAllocs => "device_allocs",
            Counter::DeviceFrees => "device_frees",
            Counter::DeviceOomEvents => "device_oom_events",
            Counter::AllocInUseBytes => "alloc_in_use_bytes",
            Counter::AllocHighWaterBytes => "alloc_high_water_bytes",
            Counter::EngineBatches => "engine_batches",
            Counter::EngineChunkSplits => "engine_chunk_splits",
            Counter::AcvBlocksCounted => "acv_blocks_counted",
            Counter::AcvBlocksSkipped => "acv_blocks_skipped",
            Counter::ServingBatches => "serving_batches",
            Counter::ServingRequests => "serving_requests",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::MemoBytes => "memo_bytes",
            Counter::TuningCacheHits => "tuning_cache_hits",
            Counter::TuningCacheMisses => "tuning_cache_misses",
        }
    }
}

/// Fixed-size registry of every [`Counter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    values: [u64; Counter::ALL.len()],
}

impl CounterRegistry {
    /// Current value of a counter.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Adds `n` to a monotonic counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.values[c as usize] += n;
    }

    /// Overwrites a gauge-style entry.
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// Raises a gauge-style entry to at least `v`.
    pub fn max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.values[c as usize];
        *slot = (*slot).max(v);
    }

    /// Name → value map (sorted; the snapshot's serialization order).
    #[must_use]
    pub fn to_map(&self) -> BTreeMap<String, u64> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), self.get(c)))
            .collect()
    }
}

/// One completed span on the simulated (or host) timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Human-readable span name (the Chrome trace `name`).
    pub name: String,
    /// Process track (one per layer; see [`PID_GPU`] etc.).
    pub pid: u32,
    /// Thread track within the process (e.g. one per concurrent block slot).
    pub tid: u32,
    /// Start time in nanoseconds on the track's timeline.
    pub start_ns: f64,
    /// Duration in nanoseconds.
    pub dur_ns: f64,
}

/// Flat metrics snapshot — the machine-readable export `report_md` digests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Spans recorded alongside the counters.
    pub span_count: usize,
}

impl MetricsSnapshot {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Global-load efficiency derived from the counters
    /// (requested / fetched; 1.0 when nothing was fetched).
    #[must_use]
    pub fn gmem_efficiency(&self) -> f64 {
        let requested = self.counter("gmem_requested_bytes");
        let fetched = self.counter("gmem_fetched_bytes");
        if fetched == 0 {
            1.0
        } else {
            requested as f64 / fetched as f64
        }
    }

    /// Warp-execution efficiency: active lane-steps over total lane-steps
    /// (active + divergence stalls); 1.0 when no lane-steps were recorded.
    #[must_use]
    pub fn warp_efficiency(&self) -> f64 {
        let active = self.counter("warp_active_lane_steps");
        let stalled = self.counter("divergence_stall_lane_steps");
        let total = active + stalled;
        if total == 0 {
            1.0
        } else {
            active as f64 / total as f64
        }
    }

    /// Share of simulated kernel time spent in block + global reductions;
    /// 0.0 when no kernel time was recorded.
    #[must_use]
    pub fn reduction_share(&self) -> f64 {
        let kernel_ns = self.counter("kernel_time_ns");
        let reduction_ns = self.counter("reduction_time_ns");
        if kernel_ns == 0 {
            0.0
        } else {
            (reduction_ns as f64 / kernel_ns as f64).min(1.0)
        }
    }

    /// Fraction of allocation attempts that hit simulated OOM
    /// (`oom / (allocs + oom)`); 0.0 when nothing was allocated.
    #[must_use]
    pub fn oom_retry_rate(&self) -> f64 {
        let oom = self.counter("device_oom_events");
        let attempts = self.counter("device_allocs") + oom;
        if attempts == 0 {
            0.0
        } else {
            oom as f64 / attempts as f64
        }
    }
}

/// Shared state behind a recording sink.
#[derive(Debug, Default)]
pub struct SinkInner {
    counters: Mutex<CounterRegistry>,
    spans: Mutex<Vec<SpanEvent>>,
    process_names: Mutex<BTreeMap<u32, String>>,
    /// Per-kernel profiles, latency histograms, and drift records; the
    /// recording methods live in [`crate::profile`].
    pub(crate) profiles: Mutex<crate::profile::ProfileStore>,
    /// Windowed time-series samples; the recording methods live in
    /// [`crate::timeseries`].
    pub(crate) timeseries: Mutex<crate::timeseries::TimeSeriesStore>,
    /// Tuning decisions and per-request critical paths; the recording
    /// methods live in [`crate::decision`].
    pub(crate) decisions: Mutex<crate::decision::DecisionsExport>,
}

/// Telemetry recording handle.
///
/// Cloning is cheap (`Disabled` is a unit; `Recording` clones an [`Arc`]),
/// so every layer holds its own handle to one shared recording. All methods
/// are no-ops on [`TelemetrySink::Disabled`].
#[derive(Clone, Debug, Default)]
pub enum TelemetrySink {
    /// Record nothing; every call is a no-op.
    #[default]
    Disabled,
    /// Record into shared state.
    Recording(Arc<SinkInner>),
}

impl TelemetrySink {
    /// A fresh recording sink.
    #[must_use]
    pub fn recording() -> Self {
        TelemetrySink::Recording(Arc::new(SinkInner::default()))
    }

    /// Whether this sink records anything. Layers use this to skip building
    /// span data entirely when telemetry is off.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TelemetrySink::Recording(_))
    }

    /// Adds `n` to a monotonic counter.
    pub fn add(&self, c: Counter, n: u64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.counters.lock().add(c, n);
        }
    }

    /// Overwrites a gauge-style counter.
    pub fn set(&self, c: Counter, v: u64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.counters.lock().set(c, v);
        }
    }

    /// Raises a gauge-style counter to at least `v`.
    pub fn max(&self, c: Counter, v: u64) {
        if let TelemetrySink::Recording(inner) = self {
            inner.counters.lock().max(c, v);
        }
    }

    /// Records one span.
    pub fn span(
        &self,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        start_ns: f64,
        dur_ns: f64,
    ) {
        if let TelemetrySink::Recording(inner) = self {
            inner.spans.lock().push(SpanEvent {
                name: name.into(),
                pid,
                tid,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Appends a batch of spans under one lock acquisition.
    pub fn push_spans(&self, spans: Vec<SpanEvent>) {
        if let TelemetrySink::Recording(inner) = self {
            inner.spans.lock().extend(spans);
        }
    }

    /// Names a Chrome-trace process track (idempotent).
    pub fn name_process(&self, pid: u32, name: &str) {
        if let TelemetrySink::Recording(inner) = self {
            inner
                .process_names
                .lock()
                .entry(pid)
                .or_insert_with(|| name.to_string());
        }
    }

    /// Current value of one counter (0 when disabled).
    #[must_use]
    pub fn counter_value(&self, c: Counter) -> u64 {
        match self {
            TelemetrySink::Disabled => 0,
            TelemetrySink::Recording(inner) => inner.counters.lock().get(c),
        }
    }

    /// Drains a cluster device's private sink into this (cluster-wide) one,
    /// remapping every span's pid with [`device_pid`] so each device keeps
    /// its own process group in the exported trace.
    ///
    /// Monotonic counters are added and reset on `source`; gauges are left
    /// untouched (the caller recomputes cluster-wide footprints from the
    /// live allocators — see [`Counter::is_gauge`]). Kernel profiles,
    /// histograms, and drift records move over wholesale. Spans on the
    /// engine's *host* track ([`PID_ENGINE`] tid 0: rearrange/convert/tune)
    /// are wall-clock measured and vary run to run, so they are dropped —
    /// this is what keeps cluster exports byte-identical at any
    /// `TAHOE_SIM_THREADS`. The caller must invoke this in device-index
    /// order, from one thread, after all per-device simulation finished.
    ///
    /// No-op when either sink is disabled or both share one recording.
    pub fn absorb_device(&self, source: &TelemetrySink, device_idx: usize, device_label: &str) {
        let (TelemetrySink::Recording(dst), TelemetrySink::Recording(src)) = (self, source)
        else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        let drained = std::mem::take(&mut *src.spans.lock());
        let mut remapped: Vec<SpanEvent> = drained
            .into_iter()
            .filter(|s| !(s.pid == PID_ENGINE && s.tid == 0))
            .map(|mut s| {
                s.pid = device_pid(s.pid, device_idx);
                s
            })
            .collect();
        dst.spans.lock().append(&mut remapped);
        {
            let src_names = src.process_names.lock();
            let mut dst_names = dst.process_names.lock();
            for (pid, name) in src_names.iter() {
                dst_names
                    .entry(device_pid(*pid, device_idx))
                    .or_insert_with(|| format!("{name} [gpu{device_idx}: {device_label}]"));
            }
        }
        {
            let mut src_counters = src.counters.lock();
            let mut dst_counters = dst.counters.lock();
            for c in Counter::ALL {
                if c.is_gauge() {
                    continue;
                }
                let v = src_counters.get(c);
                if v > 0 {
                    dst_counters.add(c, v);
                    src_counters.set(c, 0);
                }
            }
        }
        let store = std::mem::take(&mut *src.profiles.lock());
        dst.profiles.lock().merge_from(store);
        // Time-series samples re-tag from the device-local index 0 to the
        // cluster-wide device index; window widths agree because the cluster
        // propagates its window to device sinks at construction.
        let ts = std::mem::take(&mut *src.timeseries.lock());
        dst.timeseries.lock().merge_from(ts, device_idx);
        // Flight-recorder records re-tag the same way: a device-local engine
        // records device 0, which becomes the cluster-wide index here.
        let ds = std::mem::take(&mut *src.decisions.lock());
        dst.decisions.lock().merge_from(ds, device_idx);
    }

    /// Flat snapshot of the recorded counters (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self {
            TelemetrySink::Disabled => MetricsSnapshot {
                counters: CounterRegistry::default().to_map(),
                span_count: 0,
            },
            TelemetrySink::Recording(inner) => MetricsSnapshot {
                counters: inner.counters.lock().to_map(),
                span_count: inner.spans.lock().len(),
            },
        }
    }

    /// The metrics snapshot as pretty JSON (the `--metrics <path>` payload).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the snapshot is a map of strings to
    /// integers, which always serializes.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serializes");
        s.push('\n');
        s
    }

    /// Writes the recorded spans to `w` as Chrome trace-event JSON (the
    /// `--trace <path>` payload), loadable in Perfetto / `chrome://tracing`.
    ///
    /// Events are stably ordered by `(pid, tid, ts, −dur)`, so timestamps are
    /// monotone per track and enclosing spans precede enclosed ones; the
    /// output is a pure function of the recorded spans and therefore
    /// byte-identical however many worker threads simulated the blocks.
    ///
    /// Recorded time series additionally export as Perfetto counter tracks
    /// (`"ph":"C"` events, one per non-empty window) after the spans, in
    /// the export's `(device, name, kind)` order. The `memo_*` series are
    /// excluded — they are the one thing `TAHOE_SIM_MEMO` is allowed to
    /// change, and the trace must stay byte-identical across memo settings
    /// (`tests/determinism.rs`).
    ///
    /// Recorded request paths (DESIGN.md §2.15) export after the counter
    /// tracks, in record order: one Perfetto async span (`"b"`/`"e"`, id =
    /// request index) covering the request's end-to-end latency on the
    /// serving queue track, plus a flow arrow (`"s"`/`"f"`) from its arrival
    /// into the executing device's batch-execute track. Pure functions of
    /// the recorded [`crate::decision::RequestPathRecord`]s, so the same
    /// byte-identity guarantee applies.
    ///
    /// The text is written event by event straight from the recorded stores:
    /// spans are sorted as references under the span lock, nothing is
    /// cloned, and no `serde_json::Value` tree is built. The layout and
    /// number rules are exactly those of `serde_json::to_string_pretty`
    /// (`tests/telemetry_schema.rs` pins the bytes).
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"{\n  \"traceEvents\": [")?;
        let mut events = TraceEvents {
            out: &mut *w,
            buf: String::with_capacity(256),
            any: false,
        };
        if let TelemetrySink::Recording(inner) = self {
            let timeseries = self.timeseries();
            {
                // Same lock order as `absorb_device`: spans, then names.
                let spans = inner.spans.lock();
                let mut sorted: Vec<&SpanEvent> = spans.iter().collect();
                sorted.sort_by(|a, b| {
                    (a.pid, a.tid)
                        .cmp(&(b.pid, b.tid))
                        .then(a.start_ns.total_cmp(&b.start_ns))
                        .then(b.dur_ns.total_cmp(&a.dur_ns))
                });
                for (pid, name) in inner.process_names.lock().iter() {
                    events
                        .begin("M")
                        .num("ts", 0.0)
                        .uint("pid", u64::from(*pid))
                        .uint("tid", 0)
                        .str("name", "process_name")
                        .args("name", |b| push_json_str(b, name))
                        .end()?;
                }
                for s in sorted {
                    events
                        .begin("X")
                        .num("ts", s.start_ns / 1_000.0)
                        .num("dur", s.dur_ns / 1_000.0)
                        .uint("pid", u64::from(s.pid))
                        .uint("tid", u64::from(s.tid))
                        .str("name", &s.name)
                        .end()?;
                }
            }
            for series in &timeseries.series {
                if crate::timeseries::is_memo_series(&series.name) {
                    continue;
                }
                let pid = u64::from(device_pid(PID_GPU, series.device as usize));
                for p in &series.points {
                    events
                        .begin("C")
                        .num("ts", p.start_ns as f64 / 1_000.0)
                        .uint("pid", pid)
                        .uint("tid", 0)
                        .str("name", &series.name)
                        .args("value", |b| push_json_num(b, p.value))
                        .end()?;
                }
            }
            let queue_pid = u64::from(device_pid(PID_SERVING, 0));
            let mut name = String::new();
            for r in &inner.decisions.lock().requests {
                let exec_pid = u64::from(device_pid(PID_SERVING, r.device as usize));
                let dispatch_ns = r.arrival_ns + r.form_ns + r.queue_ns;
                let end_ns = r.arrival_ns + r.total_ns;
                name.clear();
                write!(name, "request {}", r.request).expect("formatting into a String");
                for (ph, ts_ns) in [("b", r.arrival_ns), ("e", end_ns)] {
                    events
                        .begin(ph)
                        .str("cat", "request")
                        .uint("id", r.request)
                        .num("ts", ts_ns / 1_000.0)
                        .uint("pid", queue_pid)
                        .uint("tid", 0)
                        .str("name", &name)
                        .end()?;
                }
                events
                    .begin("s")
                    .uint("id", r.request)
                    .num("ts", r.arrival_ns / 1_000.0)
                    .uint("pid", queue_pid)
                    .uint("tid", 0)
                    .str("name", "request path")
                    .end()?;
                events
                    .begin("f")
                    .str("bp", "e")
                    .uint("id", r.request)
                    .num("ts", dispatch_ns / 1_000.0)
                    .uint("pid", exec_pid)
                    .uint("tid", 2)
                    .str("name", "request path")
                    .end()?;
            }
        }
        let close: &[u8] = if events.any { b"\n  ]" } else { b"]" };
        w.write_all(close)?;
        w.write_all(b",\n  \"displayTimeUnit\": \"ns\"\n}\n")
    }

    /// [`Self::write_chrome_trace`] into a `String`.
    ///
    /// # Panics
    ///
    /// Never panics in practice: writing into memory cannot fail and the
    /// writer emits UTF-8.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut out = Vec::new();
        self.write_chrome_trace(&mut out)
            .expect("writing into memory cannot fail");
        String::from_utf8(out).expect("the trace writer emits UTF-8")
    }
}

/// Writes Chrome trace events one at a time, each laid out exactly as
/// `serde_json::to_string_pretty` lays out an element of the top-level
/// `traceEvents` array: `"ph"` first, one `"key": value` per line.
struct TraceEvents<'w, W: Write> {
    out: &'w mut W,
    /// The event being built, reused so writing an event allocates nothing.
    buf: String,
    /// Whether an event was written (the next one needs a separator).
    any: bool,
}

impl<W: Write> TraceEvents<'_, W> {
    fn begin(&mut self, ph: &str) -> &mut Self {
        self.buf.clear();
        self.buf
            .push_str(if self.any { ",\n    {" } else { "\n    {" });
        self.any = true;
        self.buf.push_str("\n      \"ph\": ");
        push_json_str(&mut self.buf, ph);
        self
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.buf.push_str(",\n      \"");
        self.buf.push_str(key);
        self.buf.push_str("\": ");
        &mut self.buf
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_json_str(self.key(key), v);
        self
    }

    fn num(&mut self, key: &str, x: f64) -> &mut Self {
        push_json_num(self.key(key), x);
        self
    }

    fn uint(&mut self, key: &str, x: u64) -> &mut Self {
        write!(self.key(key), "{x}").expect("formatting into a String");
        self
    }

    /// An `"args"` object holding the one field `key`, whose value `value`
    /// appends.
    fn args(&mut self, key: &str, value: impl FnOnce(&mut String)) -> &mut Self {
        self.buf.push_str(",\n      \"args\": {\n        \"");
        self.buf.push_str(key);
        self.buf.push_str("\": ");
        value(&mut self.buf);
        self.buf.push_str("\n      }");
        self
    }

    fn end(&mut self) -> io::Result<()> {
        self.buf.push_str("\n    }");
        self.out.write_all(self.buf.as_bytes())
    }
}

/// Appends `s` as a JSON string literal.
fn push_json_str(buf: &mut String, s: &str) {
    serde::write_escaped_str(buf, s).expect("formatting into a String");
}

/// Appends `x` by the stub's number rules: shortest round-trip digits,
/// integral values without `.0`, non-finite values as `null`.
fn push_json_num(buf: &mut String, x: f64) {
    write!(buf, "{}", serde_json::Number::Float(x)).expect("formatting into a String");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::Disabled;
        sink.add(Counter::KernelLaunches, 5);
        sink.span("x", PID_GPU, 0, 0.0, 1.0);
        assert!(!sink.is_enabled());
        let snap = sink.snapshot();
        assert_eq!(snap.counters["kernel_launches"], 0);
        assert_eq!(snap.span_count, 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::GmemFetchedBytes, 128);
        sink.add(Counter::GmemFetchedBytes, 64);
        sink.add(Counter::GmemRequestedBytes, 96);
        sink.set(Counter::AllocInUseBytes, 1000);
        sink.max(Counter::AllocHighWaterBytes, 2000);
        sink.max(Counter::AllocHighWaterBytes, 500);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["gmem_fetched_bytes"], 192);
        assert_eq!(snap.counters["alloc_in_use_bytes"], 1000);
        assert_eq!(snap.counters["alloc_high_water_bytes"], 2000);
        assert!((snap.gmem_efficiency() - 0.5).abs() < 1e-12);
        // Every declared counter appears in the snapshot.
        assert_eq!(snap.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn derived_metrics_are_nan_free_on_zero_counters() {
        // A fresh (or disabled) sink has every counter at zero; no derived
        // helper may divide by that zero.
        for sink in [TelemetrySink::Disabled, TelemetrySink::recording()] {
            let snap = sink.snapshot();
            assert_eq!(snap.gmem_efficiency(), 1.0);
            assert_eq!(snap.warp_efficiency(), 1.0);
            assert_eq!(snap.reduction_share(), 0.0);
            assert_eq!(snap.oom_retry_rate(), 0.0);
        }
        // Missing keys (e.g. a snapshot parsed from an older export) must
        // degrade the same way, not panic or return NaN.
        let empty = MetricsSnapshot { counters: BTreeMap::new(), span_count: 0 };
        for v in [
            empty.gmem_efficiency(),
            empty.warp_efficiency(),
            empty.reduction_share(),
            empty.oom_retry_rate(),
        ] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn derived_metrics_follow_their_counters() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::WarpActiveLaneSteps, 75);
        sink.add(Counter::DivergenceStallLaneSteps, 25);
        sink.add(Counter::KernelTimeNs, 1_000);
        sink.add(Counter::ReductionTimeNs, 250);
        sink.add(Counter::DeviceAllocs, 9);
        sink.add(Counter::DeviceOomEvents, 1);
        let snap = sink.snapshot();
        assert!((snap.warp_efficiency() - 0.75).abs() < 1e-12);
        assert!((snap.reduction_share() - 0.25).abs() < 1e-12);
        assert!((snap.oom_retry_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn clones_share_one_recording() {
        let a = TelemetrySink::recording();
        let b = a.clone();
        b.add(Counter::ServingRequests, 7);
        assert_eq!(a.snapshot().counters["serving_requests"], 7);
    }

    #[test]
    fn chrome_trace_sorts_tracks_and_nests_spans() {
        let sink = TelemetrySink::recording();
        sink.name_process(PID_GPU, "gpu-sim");
        // Inserted out of order; the child (shorter) span shares its
        // parent's start.
        sink.span("child", PID_GPU, 2, 10_000.0, 1_000.0);
        sink.span("parent", PID_GPU, 2, 10_000.0, 5_000.0);
        sink.span("earlier", PID_GPU, 1, 0.0, 2_000.0);
        let text = sink.chrome_trace_json();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 4); // 1 metadata + 3 spans
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        let spans: Vec<&serde_json::Value> =
            events.iter().filter(|e| e["ph"].as_str() == Some("X")).collect();
        assert_eq!(spans[0]["name"].as_str(), Some("earlier"));
        // Longer span first at equal ts.
        assert_eq!(spans[1]["name"].as_str(), Some("parent"));
        assert_eq!(spans[2]["name"].as_str(), Some("child"));
        // Timestamps are microseconds.
        assert!((spans[1]["ts"].as_f64().unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_emits_counter_tracks_but_never_memo_series() {
        let sink = TelemetrySink::recording();
        sink.ts_gauge(0, crate::timeseries::QUEUE_DEPTH, 10.0, 3.0);
        sink.ts_gauge(1, crate::timeseries::QUEUE_DEPTH, 10.0, 4.0);
        sink.ts_add(0, crate::timeseries::MEMO_HITS, 10.0, 7.0);
        let text = sink.chrome_trace_json();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        let counters: Vec<&serde_json::Value> =
            events.iter().filter(|e| e["ph"].as_str() == Some("C")).collect();
        assert_eq!(counters.len(), 2, "memo series must be excluded");
        assert_eq!(counters[0]["name"].as_str(), Some("queue_depth"));
        assert_eq!(counters[0]["pid"].as_u64(), Some(u64::from(PID_GPU)));
        assert_eq!(counters[0]["args"]["value"].as_f64(), Some(3.0));
        // Device 1's series lands in its own pid group.
        assert_eq!(
            counters[1]["pid"].as_u64(),
            Some(u64::from(device_pid(PID_GPU, 1)))
        );
        assert!(!text.contains("memo_hits"));
    }

    #[test]
    fn metrics_snapshot_round_trips_through_serde() {
        let sink = TelemetrySink::recording();
        sink.add(Counter::EngineBatches, 3);
        sink.span("s", PID_ENGINE, 0, 1.0, 2.0);
        let snap = sink.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
