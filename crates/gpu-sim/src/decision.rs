//! Request-path flight recorder and tuning decision audit (DESIGN.md §2.15).
//!
//! The profiler (DESIGN.md §2.10) answers "what did this launch cost?"; this
//! module answers the two questions aggregates cannot: *why was request R
//! slow?* and *why did Algorithm 1 pick this plan?*
//!
//! - [`DecisionRecord`] — one entry per engine tuning event: every
//!   `(strategy, block size)` candidate the tuner swept with its predicted
//!   cost (or the rejection reason), the chosen plan, and the post-hoc
//!   simulated cost + model drift for the launch that actually ran.
//! - [`RequestPathRecord`] — one entry per serving request: the critical-path
//!   breakdown (batch formation wait, queue wait behind a busy device,
//!   execution) whose components sum *bitwise* to the request's end-to-end
//!   latency, because the serving simulators construct the latency as the
//!   left-to-right fold `form + queue + execute` rather than deriving the
//!   components after the fact.
//!
//! Both accumulate in the [`TelemetrySink`] and export as
//! [`TelemetrySink::decisions_json`] (the `--decisions <path>` payload);
//! the Chrome trace additionally renders each request as a Perfetto async
//! span plus flow arrows into the executing device's track.
//!
//! # Determinism
//!
//! Records are pushed only from the engine's and the serving simulators'
//! caller threads, after `simulate_blocks` has merged block results in plan
//! order — worker threads never touch the store. Every field derives from
//! simulated-clock arithmetic and performance-model evaluation (no
//! wall-clock), so the export is byte-identical across the
//! `TAHOE_SIM_THREADS` × `TAHOE_SIM_MEMO` cross-product
//! (`tests/determinism.rs`).

use serde::{Deserialize, Serialize};

use crate::telemetry::TelemetrySink;

/// One `(strategy, block size)` candidate Algorithm 1 evaluated.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionCandidate {
    /// Strategy name (e.g. `"shared forest"`).
    pub strategy: String,
    /// Candidate threads per block.
    pub block_threads: u64,
    /// Model-predicted batch cost (ns); `None` (JSON `null`) when the
    /// candidate was rejected before costing — a rejection is not a
    /// zero-cost prediction.
    pub predicted_ns: Option<f64>,
    /// Why the candidate was rejected (`None` = feasible and costed).
    pub rejection: Option<String>,
}

/// One engine tuning event: the full candidate sweep, the chosen plan, and
/// the realized (simulated) cost of the launch it produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Cluster device index the batch ran on (0 for a bare engine; re-tagged
    /// when a cluster absorbs a device sink).
    pub device: u32,
    /// Engine batch ordinal on its device (1-based launch order).
    pub batch: u64,
    /// Samples in the batch.
    pub n_samples: u64,
    /// Whether the strategy was forced by the caller (the sweep is still
    /// recorded so the export shows what the model *would* have chosen).
    pub forced: bool,
    /// Strategy the engine ran.
    pub chosen_strategy: String,
    /// Block size the engine launched with.
    pub chosen_block_threads: u64,
    /// Model-predicted cost of the chosen plan for this batch (ns).
    pub predicted_ns: f64,
    /// Simulated kernel time of the launch (ns).
    pub simulated_ns: f64,
    /// `(predicted − simulated) / simulated` (0 when simulated is 0) — the
    /// same value as the launch's `DriftRecord`.
    pub relative_error: f64,
    /// Calibration generation the predictions were made under (0 = the raw
    /// §6 constants; bumps when the engine's calibrator refits and moves a
    /// scale).
    pub calibration_generation: u64,
    /// Whether the tuned plan list came from the engine's tuning-decision
    /// cache instead of a fresh `tune_all` sweep.
    pub cache_hit: bool,
    /// Every candidate the tuner swept, in sweep order (strategy-major,
    /// ascending block size).
    pub candidates: Vec<DecisionCandidate>,
}

/// One serving request's critical path. `form_ns + queue_ns + execute_ns`
/// equals `total_ns` bitwise: the serving simulators compute `total_ns` as
/// exactly that left-to-right sum and report it as the request's latency.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestPathRecord {
    /// Request index in the trace — the trace id linking the Chrome-trace
    /// async span and flow arrows to this record.
    pub request: u64,
    /// Serving batch ordinal the request was grouped into (dispatch order).
    pub batch: u64,
    /// Cluster device index that executed the batch (0 for a single engine).
    pub device: u32,
    /// Arrival time on the simulated clock (ns).
    pub arrival_ns: f64,
    /// Wait for the batch to form after arrival (ns; 0 for the request that
    /// completed the batch).
    pub form_ns: f64,
    /// Wait for the dispatch device to become free (ns).
    pub queue_ns: f64,
    /// Batch execution time on the device (ns).
    pub execute_ns: f64,
    /// Slice of `execute_ns` spent in block + global reductions
    /// (informational; not a critical-path component of the sum).
    pub reduction_ns: f64,
    /// End-to-end latency (ns) — bitwise `form_ns + queue_ns + execute_ns`.
    pub total_ns: f64,
}

/// The full flight-recorder export — the `--decisions <path>` payload. A
/// recording sink accumulates straight into one, so the export serializes
/// the recorded store itself.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DecisionsExport {
    /// One record per engine tuning event, in launch order (device-major
    /// after a cluster merge).
    pub decisions: Vec<DecisionRecord>,
    /// One record per serving request, in request order within each batch,
    /// batches in dispatch order.
    pub requests: Vec<RequestPathRecord>,
}

impl DecisionsExport {
    /// Appends a device sink's records, re-tagging their device-local index
    /// 0 to the cluster-wide `device_idx`. Callers (the cluster absorb path)
    /// must invoke this in device-index order so the merged export is
    /// deterministic.
    pub(crate) fn merge_from(&mut self, other: DecisionsExport, device_idx: usize) {
        self.decisions.extend(other.decisions.into_iter().map(|mut d| {
            d.device += device_idx as u32;
            d
        }));
        self.requests.extend(other.requests.into_iter().map(|mut r| {
            r.device += device_idx as u32;
            r
        }));
    }

    /// Parses an export previously written by
    /// [`TelemetrySink::decisions_json`] (e.g. a `--decisions <path>` file).
    ///
    /// # Errors
    ///
    /// Returns the deserialization error message when `text` is not a valid
    /// flight-recorder export.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl TelemetrySink {
    /// Records one tuning decision. No-op when disabled. Called only from
    /// the engine's caller thread, after the launch finished.
    pub fn push_decision(&self, record: DecisionRecord) {
        if let TelemetrySink::Recording(inner) = self {
            inner.decisions.lock().decisions.push(record);
        }
    }

    /// Records one serving request's critical path. No-op when disabled.
    /// Called only from the serving simulator's caller thread.
    pub fn push_request_path(&self, record: RequestPathRecord) {
        if let TelemetrySink::Recording(inner) = self {
            inner.decisions.lock().requests.push(record);
        }
    }

    /// Snapshot of the recorded flight-recorder state (empty when disabled).
    #[must_use]
    pub fn decisions(&self) -> DecisionsExport {
        match self {
            TelemetrySink::Disabled => DecisionsExport::default(),
            TelemetrySink::Recording(inner) => inner.decisions.lock().clone(),
        }
    }

    /// The flight-recorder export as pretty JSON (the `--decisions <path>`
    /// payload).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the export is plain data that always
    /// serializes.
    #[must_use]
    pub fn decisions_json(&self) -> String {
        let mut s = match self {
            TelemetrySink::Disabled => serde_json::to_string_pretty(&DecisionsExport::default()),
            TelemetrySink::Recording(inner) => serde_json::to_string_pretty(&*inner.decisions.lock()),
        }
        .expect("decisions serialize");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(device: u32) -> DecisionRecord {
        DecisionRecord {
            device,
            batch: 1,
            n_samples: 64,
            forced: false,
            chosen_strategy: "shared data".to_string(),
            chosen_block_threads: 128,
            predicted_ns: 900.0,
            simulated_ns: 1_000.0,
            relative_error: -0.1,
            calibration_generation: 0,
            cache_hit: false,
            candidates: vec![
                DecisionCandidate {
                    strategy: "shared data".to_string(),
                    block_threads: 128,
                    predicted_ns: Some(900.0),
                    rejection: None,
                },
                DecisionCandidate {
                    strategy: "shared forest".to_string(),
                    block_threads: 1024,
                    predicted_ns: None,
                    rejection: Some("geometry infeasible".to_string()),
                },
            ],
        }
    }

    fn request(device: u32) -> RequestPathRecord {
        RequestPathRecord {
            request: 3,
            batch: 0,
            device,
            arrival_ns: 150.0,
            form_ns: 50.0,
            queue_ns: 25.0,
            execute_ns: 1_000.0,
            reduction_ns: 100.0,
            total_ns: 50.0 + 25.0 + 1_000.0,
        }
    }

    #[test]
    fn disabled_sink_stores_nothing() {
        let sink = TelemetrySink::Disabled;
        sink.push_decision(decision(0));
        sink.push_request_path(request(0));
        let e = sink.decisions();
        assert!(e.decisions.is_empty());
        assert!(e.requests.is_empty());
    }

    #[test]
    fn recording_sink_accumulates_and_round_trips() {
        let sink = TelemetrySink::recording();
        sink.push_decision(decision(0));
        sink.push_request_path(request(0));
        let e = sink.decisions();
        assert_eq!(e.decisions.len(), 1);
        assert_eq!(e.requests.len(), 1);
        assert_eq!(e.decisions[0].candidates.len(), 2);
        let back = DecisionsExport::from_json(&sink.decisions_json()).expect("export parses");
        assert_eq!(back, e, "round-trip must be lossless");
    }

    #[test]
    fn merge_retags_the_device_local_index() {
        let mut cluster = DecisionsExport::default();
        let mut dev = DecisionsExport::default();
        dev.decisions.push(decision(0));
        dev.requests.push(request(0));
        cluster.merge_from(dev, 2);
        assert_eq!(cluster.decisions[0].device, 2);
        assert_eq!(cluster.requests[0].device, 2);
        // A cluster-recorded request (explicit device) merges unchanged at
        // index 0.
        let mut explicit = DecisionsExport::default();
        explicit.requests.push(request(1));
        cluster.merge_from(explicit, 0);
        assert_eq!(cluster.requests[1].device, 1);
    }
}
